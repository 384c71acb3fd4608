package entropy

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// payloadsFor builds a diverse set of payloads of length n: uniform random
// (mostly unique k-grams), low-diversity periodic data (heavy counts > 1),
// text-like bytes, a low-diversity prefix followed by a random suffix (a
// few big classes next to many that die at once), and the refinement's
// worst cases — constant bytes and short periods, where every position
// stays alive to the deepest level.
func payloadsFor(rng *rand.Rand, n int) [][]byte {
	random := make([]byte, n)
	rng.Read(random)

	periodic := func(period int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(i % period)
		}
		return p
	}

	constant := bytes.Repeat([]byte{0xAB}, n)

	text := make([]byte, n)
	src := []byte("the quick brown fox jumps over the lazy dog ")
	for i := range text {
		text[i] = src[i%len(src)]
	}

	mixed := make([]byte, n)
	for i := range mixed[:n/2] {
		mixed[i] = byte(i % 3)
	}
	rng.Read(mixed[n/2:])

	return [][]byte{random, periodic(7), constant, text, mixed,
		periodic(2), periodic(3), periodic(16)}
}

// assertSameBits fails unless got and want agree on every bit.
func assertSameBits(t *testing.T, what string, n int, widths []int, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s n=%d widths=%v: %d features, want %d", what, n, widths, len(got), len(want))
	}
	for i, k := range widths {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("%s n=%d k=%d: h=%v (%#x) != want h=%v (%#x)",
				what, n, k, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// assertVectorMatchesOracle compares VectorAt with the string-keyed oracle.
func assertVectorMatchesOracle(t *testing.T, data []byte, widths []int) {
	t.Helper()
	fast, err := VectorAt(data, widths)
	if err != nil {
		t.Fatalf("VectorAt(n=%d, widths=%v): %v", len(data), widths, err)
	}
	oracle, err := legacyVectorAt(data, widths)
	if err != nil {
		t.Fatalf("legacyVectorAt(n=%d, widths=%v): %v", len(data), widths, err)
	}
	assertSameBits(t, "VectorAt vs oracle", len(data), widths, fast, oracle)
}

// assertHMatchesOracle compares the scalar entry point with the oracle.
func assertHMatchesOracle(t *testing.T, data []byte, k int) {
	t.Helper()
	fast, err := H(data, k)
	if err != nil {
		t.Fatalf("H(n=%d, k=%d): %v", len(data), k, err)
	}
	oracle, err := legacyH(data, k)
	if err != nil {
		t.Fatalf("legacyH(n=%d, k=%d): %v", len(data), k, err)
	}
	assertSameBits(t, "H vs oracle", len(data), []int{k}, []float64{fast}, []float64{oracle})
}

// TestDifferentialPackedVsLegacy proves the determinism invariant: the
// refinement produces bit-identical h_k to the string-keyed oracle for
// every width 1..32 across payload lengths 1..4096, including len(data) ==
// k (every length up to 64 is swept with every width it supports).
func TestDifferentialPackedVsLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	lengths := []int{}
	for n := 1; n <= 64; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 100, 255, 256, 257, 512, 1000, 1024, 2048, 4095, 4096)

	for _, n := range lengths {
		var widths []int
		for k := 1; k <= 32 && k <= n; k++ {
			widths = append(widths, k)
		}
		for _, data := range payloadsFor(rng, n) {
			assertVectorMatchesOracle(t, data, widths)
		}
	}
}

// TestDifferentialWidthSets covers width sets the 1..k sweep does not:
// unsorted, sparse (levels walked but not folded), duplicated, and a
// single deep width.
func TestDifferentialWidthSets(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sets := [][]int{
		{1, 3, 4, 5},
		{16, 2, 9},
		{5, 5, 1, 5, 1},
		{32, 17, 24},
		{10, 9, 8, 7, 6, 5, 4, 3, 2, 1},
		{24},
		{2, 2},
	}
	for _, n := range []int{32, 33, 200, 1024} {
		for _, data := range payloadsFor(rng, n) {
			for _, widths := range sets {
				assertVectorMatchesOracle(t, data, widths)
			}
		}
	}
}

// TestRefinerReuse pins the pooled state: a refiner that has just
// processed a longer or a shorter payload, of any shape, gives the same
// bits as a cold one.
func TestRefinerReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	widths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 17}
	var payloads [][]byte
	for _, n := range []int{4096, 17, 1024, 40, 2048, 32} {
		payloads = append(payloads, payloadsFor(rng, n)...)
	}
	warm := new(refiner)
	for round := 0; round < 2; round++ {
		for _, data := range payloads {
			got := make([]float64, len(widths))
			warm.vector(got, data, widths)
			want := make([]float64, len(widths))
			new(refiner).vector(want, data, widths)
			assertSameBits(t, "reused refiner", len(data), widths, got, want)
		}
		// Second round walks the list backwards: short-then-long as well
		// as long-then-short.
		slices.Reverse(payloads)
	}
}

// TestDifferentialHMatchesLegacy checks the scalar entry point too.
func TestDifferentialHMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{20, 300, 2048} {
		for _, data := range payloadsFor(rng, n) {
			for k := 1; k <= 32 && k <= n; k++ {
				assertHMatchesOracle(t, data, k)
			}
		}
	}
}

// FuzzDifferentialPackedVsLegacy fuzzes the bit-identity invariant: for
// any payload and any width, the refinement and the string-keyed oracle
// must agree on every bit of h_k.
func FuzzDifferentialPackedVsLegacy(f *testing.F) {
	f.Add([]byte("the quick brown fox"), uint8(3))
	f.Add(bytes.Repeat([]byte{0}, 64), uint8(4))
	f.Add(bytes.Repeat([]byte{0xAB, 0xCD}, 512), uint8(9))
	big := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(big)
	f.Add(big, uint8(16))
	f.Add(big[:2048], uint8(11))
	f.Add(append(bytes.Repeat([]byte{1, 2, 3}, 600), big[:1024]...), uint8(10))
	f.Add(bytes.Repeat([]byte("abcdefghijklmnop"), 40), uint8(32))
	f.Fuzz(func(t *testing.T, data []byte, width uint8) {
		k := int(width)
		if k < 1 || k > 40 || k > len(data) {
			t.Skip()
		}
		assertHMatchesOracle(t, data, k)
	})
}

// boundaryPayload builds a payload in which byte 0xFF occurs exactly s
// times and never last, so the 0xFF class reaches level two with exactly
// s positions and is split there by whichever path its size selects. Each
// 0xFF is followed by a next byte from next(i), a byte i%7 and one to
// three filler bytes below 0xFF, so the class splits again at deeper
// levels into sub-classes of assorted sizes, including ones of one and
// two positions.
func boundaryPayload(rng *rand.Rand, s int, next func(i int) byte) []byte {
	var data []byte
	for i := 0; i < s; i++ {
		data = append(data, 0xFF, next(i), byte(i%7))
		for j := rng.Intn(3); j >= 0; j-- {
			data = append(data, byte(0x10+rng.Intn(0xE0)))
		}
	}
	return data
}

// boundarySizes are the class sizes on either side of the split paths'
// thresholds: the two-position compare, the smallest tally, and both
// sides of tallyClass.
var boundarySizes = []int{2, 3, tallyClass - 2, tallyClass - 1, tallyClass, tallyClass + 1}

// boundaryNexts are boundaryPayload's next-byte patterns: all distinct
// for small classes (a two-position class dies) and in pairs (it
// survives), plus one shared byte (the class survives whole).
var boundaryNexts = []func(i int) byte{
	func(i int) byte { return byte(i % 5) },
	func(i int) byte { return byte(i / 2 % 5) },
	func(int) byte { return 'x' },
}

// TestSplitPathBoundaries checks payloads whose level-two class sits on
// each side of every split-path threshold against the oracle, with the
// class both clear of the payload's end and trimmed by it (a trailing
// 0xFF makes the class one larger at level one and cuts it back at level
// two).
func TestSplitPathBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, s := range boundarySizes {
		for _, next := range boundaryNexts {
			data := boundaryPayload(rng, s, next)
			for _, d := range [][]byte{data, append(data[:len(data):len(data)], 0xFF)} {
				st := new(refiner)
				st.start(len(d))
				st.refine(d, 0)
				if got := st.size[len(st.size)-1]; got < uint32(s) || got > uint32(s+1) {
					t.Fatalf("s=%d: level-one 0xFF class holds %d positions", s, got)
				}
				var widths []int
				for k := 1; k <= 10 && k <= len(d); k++ {
					widths = append(widths, k)
				}
				assertVectorMatchesOracle(t, d, widths)
			}
		}
	}
}

// TestFoldIgnoresClassOrder pins the count-of-counts fold: above level
// one the result depends only on the multiset of class sizes, so any
// permutation of the size list folds to the same bits — the oracle's.
func TestFoldIgnoresClassOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	lt := logsFor(1 << 16)
	for round := 0; round < 50; round++ {
		sizes := make([]uint32, 1+rng.Intn(300))
		counts := map[string]int{}
		n := 0
		for i := range sizes {
			c := 2 + rng.Intn(40)
			if rng.Intn(8) == 0 {
				c = 2 + rng.Intn(2000)
			}
			sizes[i] = uint32(c)
			counts[string(rune(i+1))] = c
			n += c
		}
		want := sumCLogC(counts)
		st := &refiner{cc: make([]uint32, n+1)}
		for perm := 0; perm < 4; perm++ {
			st.size = sizes
			got := st.fold(2, lt)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("round %d perm %d: fold = %v, oracle %v", round, perm, got, want)
			}
			rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
		}
	}
}

// TestCountOfCountsLeftClean pins the fold's bookkeeping: every count it
// tallies is zeroed as the sweep reads it, so a warm refiner's cc is all
// zero after payloads that grow, shrink and grow again.
func TestCountOfCountsLeftClean(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	st := new(refiner)
	for _, n := range []int{4096, 1, 1024, 33, 4096} {
		var widths []int
		for k := 1; k <= 12 && k <= n; k++ {
			widths = append(widths, k)
		}
		for _, data := range payloadsFor(rng, n) {
			vec := make([]float64, len(widths))
			st.vector(vec, data, widths)
			for c, m := range st.cc {
				if m != 0 {
					t.Fatalf("after n=%d: cc[%d] = %d, want 0", n, c, m)
				}
			}
		}
	}
}

// TestSplitTallyGenerationWrap runs the tally split across the wrap of its
// generation stamp, from a cold refiner (every stamp zero, so a generation
// that wraps to zero without clearing them reads every byte as already
// tallied) and from a warm one whose only tally so far stamped 'x', 'y'
// and 'z' with generation one, which a wrap that skips zero without
// clearing would read as its own.
func TestSplitTallyGenerationWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	widths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	// The 'a' class is the payload's one tally split: three positions
	// followed by 'x', 'y' and 'z'.
	payloads := [][]byte{[]byte("axayaz0123")}
	for _, n := range []int{1024, 200, 64} {
		payloads = append(payloads, payloadsFor(rng, n)...)
	}
	for _, s := range boundarySizes[2:] {
		payloads = append(payloads, boundaryPayload(rng, s, boundaryNexts[0]))
	}
	for _, warm := range []bool{false, true} {
		for _, start := range []uint32{math.MaxUint32 - 3, math.MaxUint32} {
			st := new(refiner)
			if warm {
				st.vector(make([]float64, len(widths)), payloads[0], widths)
			}
			st.gen = start
			for _, data := range payloads {
				got := make([]float64, len(widths))
				st.vector(got, data, widths)
				want, err := legacyVectorAt(data, widths)
				if err != nil {
					t.Fatal(err)
				}
				assertSameBits(t, "across the stamp wrap", len(data), widths, got, want)
			}
			if st.gen >= start {
				t.Fatalf("generation never wrapped from %#x", start)
			}
		}
	}
}

// FuzzVectorAtVsOracle fuzzes the bit-identity invariant over whole width
// sets, so one refinement folds many levels: bit k-1 of widthMask selects
// width k (1..32, those no longer than data).
func FuzzVectorAtVsOracle(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for _, s := range boundarySizes {
		for _, next := range boundaryNexts {
			f.Add(boundaryPayload(rng, s, next), uint32(0x3FF))
		}
	}
	big := make([]byte, 4096)
	rng.Read(big)
	f.Add(big[:1024], uint32(0xFFFFFFFF))
	f.Add(bytes.Repeat([]byte{0}, 300), uint32(0x8000001D))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint32(0x1D))
	f.Fuzz(func(t *testing.T, data []byte, widthMask uint32) {
		var widths []int
		for k := 1; k <= 32 && k <= len(data); k++ {
			if widthMask&(1<<(k-1)) != 0 {
				widths = append(widths, k)
			}
		}
		if len(widths) == 0 {
			t.Skip()
		}
		assertVectorMatchesOracle(t, data, widths)
	})
}

// TestVectorMatchesVectorAt pins Vector to the same values as VectorAt
// over 1..width.
func TestVectorMatchesVectorAt(t *testing.T) {
	data := make([]byte, 512)
	rand.New(rand.NewSource(3)).Read(data)
	vec, err := Vector(data, 10)
	if err != nil {
		t.Fatal(err)
	}
	at, err := VectorAt(data, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := range vec {
		if math.Float64bits(vec[i]) != math.Float64bits(at[i]) {
			t.Errorf("k=%d: Vector=%v VectorAt=%v", i+1, vec[i], at[i])
		}
	}
}

// TestVectorAtEmptyWidths pins the contract fix: an empty width set is an
// error, not a silently empty vector.
func TestVectorAtEmptyWidths(t *testing.T) {
	if _, err := VectorAt([]byte("data"), nil); !errors.Is(err, ErrBadWidths) {
		t.Errorf("VectorAt(empty widths): err = %v, want ErrBadWidths", err)
	}
	if _, err := VectorAt([]byte("data"), []int{}); !errors.Is(err, ErrBadWidths) {
		t.Errorf("VectorAt([]): err = %v, want ErrBadWidths", err)
	}
	if _, err := VectorAt([]byte("data"), []int{1, 0}); !errors.Is(err, ErrBadWidths) {
		t.Errorf("VectorAt(width 0): err = %v, want ErrBadWidths", err)
	}
	if _, err := VectorAt([]byte("ab"), []int{1, 3}); err != ErrShortSequence {
		t.Errorf("VectorAt(short data): err = %v, want ErrShortSequence", err)
	}
}

// TestNormalizeSEdgeCases re-pins the degenerate stream lengths the
// streaming estimator depends on: zero elements and a single element both
// carry zero diversity.
func TestNormalizeSEdgeCases(t *testing.T) {
	for k := 1; k <= 10; k++ {
		if got := NormalizeS(0, 0, k); got != 0 {
			t.Errorf("NormalizeS(n=0, k=%d) = %v, want 0", k, got)
		}
		if got := NormalizeS(123.45, 0, k); got != 0 {
			t.Errorf("NormalizeS(S>0, n=0, k=%d) = %v, want 0", k, got)
		}
		if got := NormalizeS(0, 1, k); got != 0 {
			t.Errorf("NormalizeS(n=1, k=%d) = %v, want 0", k, got)
		}
		if got := NormalizeS(-10, 1, k); got != 0 {
			t.Errorf("NormalizeS(S<0, n=1, k=%d) = %v, want 0", k, got)
		}
	}
}

// TestVectorAllocRegression is the alloc budget gate for the hot path: a
// warm pooled refiner extracts an entropy vector from a 1 KiB payload
// without allocating at all when the caller supplies the destination, and
// with the result slice only through VectorAt.
func TestVectorAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	data := make([]byte, 1024)
	rand.New(rand.NewSource(9)).Read(data)
	widths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

	// Warm the pool so the refiner's slices are at their steady size.
	for i := 0; i < 4; i++ {
		if _, err := VectorAt(data, widths); err != nil {
			t.Fatal(err)
		}
	}
	into := testing.AllocsPerRun(50, func() {
		var buf [16]float64
		if _, err := AppendVector(buf[:0], data, widths); err != nil {
			t.Fatal(err)
		}
	})
	if into != 0 {
		t.Errorf("AppendVector into a stack buffer: allocs/op = %v, want 0", into)
	}
	at := testing.AllocsPerRun(50, func() {
		if _, err := VectorAt(data, widths); err != nil {
			t.Fatal(err)
		}
	})
	if at > 1 {
		t.Errorf("VectorAt allocs/op = %v, want <= 1 (the result slice)", at)
	}
}

// TestAppendVector pins the append contract: features land after dst's
// existing elements, and an error leaves dst as it was.
func TestAppendVector(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog")
	widths := []int{1, 3, 4, 5}
	want, err := VectorAt(data, widths)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AppendVector([]float64{7}, data, widths)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1+len(widths) || got[0] != 7 {
		t.Fatalf("AppendVector = %v, want the prefix 7 then %d features", got, len(widths))
	}
	assertSameBits(t, "AppendVector", len(data), widths, got[1:], want)

	got, err = AppendVector(got[:1], data[:2], widths)
	if !errors.Is(err, ErrShortSequence) || len(got) != 1 {
		t.Errorf("AppendVector(short data) = %v, %v; want dst unchanged and ErrShortSequence", got, err)
	}
}

// TestZerosWithinBudget guards the refinement's worst case: on an all-zero
// payload nothing is ever pruned, so every level touches every position.
// That must stay linear per level — the fastest of a few runs on 1 KiB x
// ten widths has to fit a budget an order of magnitude above what it
// measures (≈ 80 µs on the 2 vCPU box that recorded BENCH_entropy.json
// run 7).
func TestZerosWithinBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("timing is skewed under the race detector")
	}
	const budget = time.Millisecond
	data := make([]byte, 1024)
	widths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	var buf [16]float64
	best := time.Duration(math.MaxInt64)
	for i := 0; i < 20; i++ {
		start := time.Now()
		if _, err := AppendVector(buf[:0], data, widths); err != nil {
			t.Fatal(err)
		}
		best = min(best, time.Since(start))
	}
	if best > budget {
		t.Errorf("all-zeros 1 KiB vector took %v at best, budget %v", best, budget)
	}
}
