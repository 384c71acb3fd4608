package entropy

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// This file is the allocation-free exact-counting hot path: one
// prefix-class refinement serves every element width.
//
// A position whose k-gram occurs once contributes nothing to Σ c·log2(c),
// and its (k+1)-gram — which extends that unique k-gram — is unique too.
// So width k+1 only has to look at the positions whose k-gram occurred at
// least twice (the "alive" positions), and two alive positions share a
// (k+1)-gram exactly when they share a k-gram class and the next byte.
// The refiner keeps the alive positions grouped by class and, level by
// level, splits every class by the byte that follows it; the class sizes
// of level k are the repeated k-gram counts h_k needs. Work per level is
// proportional to the number of alive positions, which falls quickly on
// anything but degenerate payloads, and nothing depends on how wide k is.
//
// Determinism invariant: the class sizes are folded through the same
// ascending count-of-counts summation as the string-keyed reference
// (index order for k = 1), with every float multiplication in the same
// order, so h_k is bit-identical to it (the differential and fuzz tests in
// refine_test.go prove it).

// ---------------------------------------------------------------------------
// Memoized c·log2(c)
//
// Every fold term needs log2(c) for a count c <= payload length. The counts
// repeat endlessly across flows, so the logs are computed once into a
// shared read-only table instead of calling math.Log2 per distinct count
// per flow. Two arrays are kept because float multiplication is not
// associative and the two fold shapes multiply in different orders:
// clogc[c] = c·log2(c) is the exact single-occurrence term, while the
// multiplicity term (m·c)·log2(c) must multiply m·c first and so needs the
// bare log2[c]. Using the wrong one would break bit-identity with the
// reference.

// logTable is an immutable memo of log2(c) and c·log2(c) for c < len. It
// is replaced wholesale (never mutated) when a longer payload needs more
// entries, so readers can use a loaded snapshot without locking.
type logTable struct {
	log2  []float64
	clogc []float64
}

var (
	logTab   atomic.Pointer[logTable]
	logTabMu sync.Mutex
)

// logTableInitial covers counts from payloads up to 4 KiB; logTableMax
// bounds the memo's memory at 16 MiB — counts beyond it (payloads over a
// megabyte of a single repeated k-gram) compute math.Log2 inline.
const (
	logTableInitial = 1 << 12
	logTableMax     = 1 << 20
)

// logsFor returns a memo table covering counts up to min(maxCount,
// logTableMax), growing the shared table by doubling when needed. The
// returned table is read-only.
func logsFor(maxCount int) *logTable {
	if lt := logTab.Load(); lt != nil && (len(lt.log2) > maxCount || len(lt.log2) > logTableMax) {
		return lt
	}
	logTabMu.Lock()
	defer logTabMu.Unlock()
	if lt := logTab.Load(); lt != nil && (len(lt.log2) > maxCount || len(lt.log2) > logTableMax) {
		return lt
	}
	size := logTableInitial
	for size <= maxCount && size < logTableMax {
		size <<= 1
	}
	nt := &logTable{
		log2:  make([]float64, size+1),
		clogc: make([]float64, size+1),
	}
	for c := 2; c <= size; c++ {
		l := math.Log2(float64(c))
		nt.log2[c] = l
		nt.clogc[c] = float64(c) * l
	}
	logTab.Store(nt)
	return nt
}

// term returns m·c·log2(c) exactly as the reference fold computes it:
// (float64(m)·float64(c))·log2(c), with the single-occurrence case taking
// the memoized c·log2(c) directly (multiplying by 1.0 is exact, so the two
// forms are bit-identical).
func (lt *logTable) term(mult, c int) float64 {
	if c < len(lt.log2) {
		if mult == 1 {
			return lt.clogc[c]
		}
		return float64(mult) * float64(c) * lt.log2[c]
	}
	return float64(mult) * float64(c) * math.Log2(float64(c))
}

// foldCounts sorts the collected counts ascending and sums m·c·log2(c)
// over the grouped multiplicities — the exact fold shape (and float
// multiplication order) of the string-keyed reference, so the result is
// bit-identical regardless of the order the counts were collected in.
func foldCounts(scratch []int, lt *logTable) (float64, []int) {
	sort.Ints(scratch)
	var sum float64
	for i := 0; i < len(scratch); {
		c := scratch[i]
		j := i + 1
		for j < len(scratch) && scratch[j] == c {
			j++
		}
		sum += lt.term(j-i, c)
		i = j
	}
	return sum, scratch
}

// ---------------------------------------------------------------------------
// Prefix-class refinement

// smallClass is the class size up to which a class is split by an
// insertion sort on the next byte; larger classes take a 256-bucket
// counting pass, whose fixed cost a small class would not repay (measured
// flat between 24 and 64 on corpus payloads).
const smallClass = 32

// dropped marks, in the counting pass, a next-byte bucket that holds a
// single position and so leaves the alive set.
const dropped = math.MaxUint32

// refiner is the pooled per-call state: the alive positions of the current
// level grouped by k-gram class (each class contiguous and ascending), the
// class sizes in the same order, a second pair of slices the next level is
// written into, and the fold scratch. Everything is O(len(data)) and warm
// after the first call at a given length, so a pooled refiner counts
// without allocating.
type refiner struct {
	pos, nextPos   []uint32
	size, nextSize []uint32
	counts         []int
}

var refinerPool = sync.Pool{New: func() any { return new(refiner) }}

// start makes every position of an n-byte payload one class — the level
// zero the first refine splits into the byte classes of k = 1.
func (st *refiner) start(n int) {
	if cap(st.pos) < n {
		st.pos = make([]uint32, n)
		st.nextPos = make([]uint32, n)
	}
	st.pos = st.pos[:n]
	for i := range st.pos {
		st.pos[i] = uint32(i)
	}
	st.size = append(st.size[:0], uint32(n))
}

// refine moves from level off to level off+1: it splits every class by the
// byte at offset off from each of its positions and keeps the sub-classes
// of two or more positions. Both splits are stable and emit sub-classes in
// ascending byte order, so positions stay ascending within a class and the
// k = 1 classes come out in byte order.
func (st *refiner) refine(data []byte, off int) {
	out, sizes := st.nextPos[:0], st.nextSize[:0]
	begin := 0
	for _, m := range st.size {
		class := st.pos[begin : begin+int(m)]
		begin += int(m)
		// The payload's last off-gram has no byte after it; positions are
		// ascending, so it can only be the class's last member.
		if int(class[len(class)-1])+off == len(data) {
			class = class[:len(class)-1]
		}
		switch {
		case len(class) < 2:
		case len(class) <= smallClass:
			for i := 1; i < len(class); i++ {
				p := class[i]
				b := data[int(p)+off]
				j := i
				for j > 0 && data[int(class[j-1])+off] > b {
					class[j] = class[j-1]
					j--
				}
				class[j] = p
			}
			for i := 0; i < len(class); {
				b := data[int(class[i])+off]
				j := i + 1
				for j < len(class) && data[int(class[j])+off] == b {
					j++
				}
				if j-i >= 2 {
					out = append(out, class[i:j]...)
					sizes = append(sizes, uint32(j-i))
				}
				i = j
			}
		default:
			var slot [256]uint32
			for _, p := range class {
				slot[data[int(p)+off]]++
			}
			end := uint32(len(out))
			for b := range slot {
				c := slot[b]
				if c < 2 {
					slot[b] = dropped
					continue
				}
				sizes = append(sizes, c)
				slot[b] = end
				end += c
			}
			out = out[:end]
			for _, p := range class {
				b := data[int(p)+off]
				if at := slot[b]; at != dropped {
					out[at] = p
					slot[b] = at + 1
				}
			}
		}
	}
	st.pos, st.nextPos = out, st.pos
	st.size, st.nextSize = sizes, st.size
}

// fold returns Σ c·log2(c) over the current level's class sizes. Level one
// sums in class (= byte value) order, as the reference's byte histogram
// does; every other level takes the count-of-counts fold.
func (st *refiner) fold(k int, lt *logTable) float64 {
	if k == 1 {
		var sum float64
		for _, c := range st.size {
			sum += lt.term(1, int(c))
		}
		return sum
	}
	st.counts = st.counts[:0]
	for _, c := range st.size {
		st.counts = append(st.counts, int(c))
	}
	var sum float64
	sum, st.counts = foldCounts(st.counts, lt)
	return sum
}

// vector computes h_k for each width into vec (len(vec) must equal
// len(widths)). Widths must already be validated positive and no longer
// than data. The refinement walks k = 1 … max(widths) once, folding only
// the requested levels; once no position is alive the remaining levels
// cost nothing and fold to zero.
func (st *refiner) vector(vec []float64, data []byte, widths []int) {
	maxK := 0
	for _, k := range widths {
		maxK = max(maxK, k)
	}
	lt := logsFor(len(data))
	st.start(len(data))
	for k := 1; k <= maxK; k++ {
		st.refine(data, k-1)
		for i, w := range widths {
			if w == k {
				vec[i] = NormalizeS(st.fold(k, lt), len(data)-k+1, k)
			}
		}
	}
}
