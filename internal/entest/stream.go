package entest

import (
	"fmt"
	"math"

	"iustitia/internal/entropy"
	"iustitia/internal/stats"
)

// maxPackedWidth is the widest element whose k-gram fits a single uint64
// rolling register; widths up to maxWidePackedWidth use a two-word one.
const (
	maxPackedWidth     = 8
	maxWidePackedWidth = 16
)

// winMode selects how a kgramWin represents the trailing k-1 bytes.
type winMode uint8

const (
	winPacked winMode = iota // k <= maxPackedWidth: one-word register
	winWide                  // k <= maxWidePackedWidth: two-word register
	winString                // wider: explicit byte window
)

// kgramWin is the rolling k-gram window shared by every sketch backend:
// it folds one byte at a time and reports when a full element has formed.
// For packed modes the element is the (regHi, reg) pair; for string mode
// it is buf, and the caller must slide() after consuming it.
type kgramWin struct {
	k      int
	mode   winMode
	reg    uint64
	regHi  uint64
	mask   uint64
	hiMask uint64
	filled int // bytes folded so far, capped at k-1
	buf    []byte
}

// newKgramWin builds a window for element width k (k >= 2).
func newKgramWin(k int) kgramWin {
	w := kgramWin{k: k}
	switch {
	case k <= maxPackedWidth:
		w.mode = winPacked
		if k == 8 {
			w.mask = ^uint64(0)
		} else {
			w.mask = 1<<(8*k) - 1
		}
	case k <= maxWidePackedWidth:
		w.mode = winWide
		if k == 16 {
			w.hiMask = ^uint64(0)
		} else {
			w.hiMask = 1<<(8*(k-8)) - 1
		}
	default:
		w.mode = winString
		w.buf = make([]byte, 0, k-1)
	}
	return w
}

// push folds one byte and reports whether a full element is now formed.
func (w *kgramWin) push(b byte) bool {
	switch w.mode {
	case winPacked:
		w.reg = (w.reg<<8 | uint64(b)) & w.mask
		if w.filled < w.k-1 {
			w.filled++
			return false
		}
		return true
	case winWide:
		// The byte leaving the low word becomes the youngest byte of the
		// high word; the low word needs no mask at full width.
		w.regHi = (w.regHi<<8 | w.reg>>56) & w.hiMask
		w.reg = w.reg<<8 | uint64(b)
		if w.filled < w.k-1 {
			w.filled++
			return false
		}
		return true
	default:
		w.buf = append(w.buf, b)
		return len(w.buf) == w.k
	}
}

// slide drops the oldest byte of a string-mode window after its element
// has been consumed.
func (w *kgramWin) slide() {
	copy(w.buf, w.buf[1:])
	w.buf = w.buf[:w.k-1]
}

// reset clears the window for a new stream.
func (w *kgramWin) reset() {
	w.reg = 0
	w.regHi = 0
	w.filled = 0
	w.buf = w.buf[:0]
}

// StreamEstimator is the one-pass form of the (δ,ε)-approximation: it
// consumes a byte stream incrementally — packet by packet, the way a
// router sees a flow — and can report an estimate of S_k (and h_k) at any
// point without ever buffering the stream.
//
// Each of its g·z slots independently samples a uniform stream position by
// reservoir sampling and counts occurrences of its sampled element from
// that position onward; n·(c·log c − (c−1)·log(c−1)) is then the standard
// AMS unbiased estimator, combined by mean-within-group and
// median-of-groups, exactly as in the buffered Estimator.
//
// Rather than drawing a random number per slot per element (g·z draws per
// byte), each slot draws its next adoption position geometrically: after
// adopting at position n, the slot next adopts at ⌊n/u⌋+1 with u uniform
// on (0,1], which satisfies the reservoir law P(next > m) = n/m exactly.
// The expected number of draws over a whole stream is g·z·ln(n) total,
// not g·z·n.
//
// A StreamEstimator is not safe for concurrent use.
type StreamEstimator struct {
	k     int
	g, z  int
	slots []streamSlot

	n int // elements seen so far

	win  kgramWin
	seed int64
	rng  prng
}

// streamSlot is one reservoir sample: the element adopted at the sampled
// position (a one- or two-word packed key or a string, per the window
// mode), the count of its occurrences since, and the element index at
// which the slot will next adopt.
type streamSlot struct {
	key   uint64
	hi    uint64
	elem  string
	count int
	next  int
}

// maxSkip caps a slot's next-adoption index so the ⌊n/u⌋ draw cannot
// overflow when u is vanishingly small.
const maxSkip = 1 << 62

// NewStream builds a one-pass estimator for element width k. The counter
// budget z is sized from expectedLen (the anticipated stream length, e.g.
// the flow buffer size b) using the same z = ⌈32·log_{|f_k|}(len)/ε²⌉
// formula as the buffered estimator; g = ⌈2·log2(1/δ)⌉.
func NewStream(epsilon, delta float64, k, expectedLen int, seed int64) (*StreamEstimator, error) {
	if k < 2 {
		return nil, fmt.Errorf("entest: stream estimation needs k >= 2 (|f_1| is too small), got %d", k)
	}
	if expectedLen < k {
		return nil, fmt.Errorf("entest: expected length %d shorter than element width %d", expectedLen, k)
	}
	base, err := New(epsilon, delta, seed)
	if err != nil {
		return nil, err
	}
	g := base.Groups()
	z := base.CountersPerGroup(k, expectedLen)
	s := &StreamEstimator{
		k:     k,
		g:     g,
		z:     z,
		slots: make([]streamSlot, g*z),
		win:   newKgramWin(k),
		seed:  seed,
		rng:   newPRNG(seed),
	}
	for i := range s.slots {
		s.slots[i].next = 1 // every slot adopts the first element
	}
	return s, nil
}

// Width returns the element width k.
func (s *StreamEstimator) Width() int { return s.k }

// Counters returns the number of sampled counters (g·z) the estimator
// maintains — its memory footprint in counter units.
func (s *StreamEstimator) Counters() int { return len(s.slots) }

// Elements returns how many k-gram elements have been consumed.
func (s *StreamEstimator) Elements() int { return s.n }

// Ready reports whether at least one full element has been consumed, i.e.
// whether EstimateS/EstimateH are meaningful yet. A k-wide estimator is
// unready until k bytes have streamed.
func (s *StreamEstimator) Ready() bool { return s.n > 0 }

// Write consumes the next chunk of the stream. It implements io.Writer and
// never fails.
func (s *StreamEstimator) Write(p []byte) (int, error) {
	if s.win.mode == winString {
		for _, b := range p {
			if !s.win.push(b) {
				continue
			}
			s.consumeKey(0, 0, string(s.win.buf))
			s.win.slide()
		}
		return len(p), nil
	}
	for _, b := range p {
		if !s.win.push(b) {
			continue
		}
		// regHi is always 0 in single-word mode, so one consume path
		// serves both packed representations.
		s.consumeKey(s.win.regHi, s.win.reg, "")
	}
	return len(p), nil
}

// consumeKey feeds one element to every reservoir slot. All window modes
// funnel through here: packed modes pass the register pair with an empty
// elem, string mode passes (0, 0, elem), so a single equality test works
// for every representation and all modes draw identical reservoir
// decisions for identical streams.
func (s *StreamEstimator) consumeKey(hi, lo uint64, elem string) {
	s.n++
	n := s.n
	for i := range s.slots {
		sl := &s.slots[i]
		if n >= sl.next {
			sl.key, sl.hi, sl.elem, sl.count = lo, hi, elem, 1
			sl.next = s.nextAdoption(n)
			continue
		}
		// count > 0 distinguishes an adopted zero key from an empty slot.
		if sl.count > 0 && sl.key == lo && sl.hi == hi && sl.elem == elem {
			sl.count++
		}
	}
}

// nextAdoption draws the element index at which a slot adopts again, given
// it just adopted at index n. The reservoir law requires P(next > m) = n/m
// for every m >= n; next = ⌊n/u⌋+1 with u uniform on (0,1] satisfies it by
// inverse-transform sampling: P(⌊n/u⌋+1 > m) = P(u <= n/m) = n/m.
func (s *StreamEstimator) nextAdoption(n int) int {
	u := 1 - s.rng.float64() // uniform on (0, 1]
	next := math.Floor(float64(n)/u) + 1
	if next > maxSkip {
		return maxSkip
	}
	return int(next)
}

// EstimateS returns the current estimate of S_k = Σ m_ik·log2(m_ik) over
// everything consumed so far. It returns 0 before any element arrives.
func (s *StreamEstimator) EstimateS() float64 {
	if s.n == 0 {
		return 0
	}
	averages := make([]float64, s.g)
	for gi := 0; gi < s.g; gi++ {
		var sum float64
		for zi := 0; zi < s.z; zi++ {
			sum += unbiasedS(s.n, s.slots[gi*s.z+zi].count)
		}
		averages[gi] = sum / float64(s.z)
	}
	return stats.Median(averages)
}

// EstimateH returns the current normalized-entropy estimate h_k.
func (s *StreamEstimator) EstimateH() float64 {
	return entropy.NormalizeS(s.EstimateS(), s.n, s.k)
}

// Reset clears all state — generator included — so the estimator can be
// reused for a new flow without reallocating its counters. A reset
// estimator produces bit-identical estimates to a freshly constructed one.
func (s *StreamEstimator) Reset() {
	for i := range s.slots {
		s.slots[i] = streamSlot{next: 1}
	}
	s.n = 0
	s.win.reset()
	s.rng = newPRNG(s.seed)
}

// StreamVector tracks a full entropy vector online: an exact byte
// histogram for h_1 (estimation is invalid at |f_1| = 256) plus one Sketch
// per wider feature. It is the classification-module front end a router
// runs per flow when even the b-byte buffer is too much state.
type StreamVector struct {
	kind    SketchKind
	widths  []int
	h1      [256]int
	n1      int // total bytes consumed
	wide    []Sketch
	wideIdx []int // positions of estimated widths within widths
}

// NewStreamVector builds an online entropy-vector tracker for the given
// feature widths (width 1 is tracked exactly) using the default Lall
// reservoir backend. Use NewStreamVectorConfig to select a backend.
func NewStreamVector(epsilon, delta float64, widths []int, expectedLen int, seed int64) (*StreamVector, error) {
	return NewStreamVectorConfig(StreamConfig{
		Epsilon:     epsilon,
		Delta:       delta,
		Widths:      widths,
		ExpectedLen: expectedLen,
		Seed:        seed,
	})
}

// NewStreamVectorConfig builds an online entropy-vector tracker from a
// full configuration, including the sketch backend.
func NewStreamVectorConfig(cfg StreamConfig) (*StreamVector, error) {
	if len(cfg.Widths) == 0 {
		return nil, fmt.Errorf("entest: no feature widths")
	}
	v := &StreamVector{kind: cfg.Kind, widths: append([]int{}, cfg.Widths...)}
	for i, k := range cfg.Widths {
		if k == 1 {
			continue
		}
		est, err := NewSketch(cfg.Kind, cfg.Epsilon, cfg.Delta, k, cfg.ExpectedLen, cfg.Seed+int64(i))
		if err != nil {
			return nil, err
		}
		v.wide = append(v.wide, est)
		v.wideIdx = append(v.wideIdx, i)
	}
	return v, nil
}

// Kind returns the sketch backend the vector's wide widths use.
func (v *StreamVector) Kind() SketchKind { return v.kind }

// Widths returns a copy of the construction widths.
func (v *StreamVector) Widths() []int { return append([]int{}, v.widths...) }

// Bytes returns how many payload bytes have been consumed.
func (v *StreamVector) Bytes() int { return v.n1 }

// Write consumes the next chunk of the flow. It implements io.Writer and
// never fails: Sketch writes cannot return an error, so every sketch and
// the h_1 histogram always advance together over all of p (the io.Writer
// contract — n == len(p) with a nil error).
func (v *StreamVector) Write(p []byte) (int, error) {
	for _, b := range p {
		v.h1[b]++
	}
	v.n1 += len(p)
	for _, est := range v.wide {
		est.Write(p)
	}
	return len(p), nil
}

// Ready reports whether every width has consumed at least one element —
// i.e. whether Vector can produce a meaningful estimate. A k-wide feature
// is unready until k bytes have streamed.
func (v *StreamVector) Ready() bool {
	if v.n1 == 0 {
		return false
	}
	for _, est := range v.wide {
		if !est.Ready() {
			return false
		}
	}
	return true
}

// Vector returns the current entropy-vector estimate, ordered like the
// construction widths. If any width has not yet consumed a full element it
// returns entropy.ErrShortSequence, matching the exact path's behaviour on
// short payloads — a silent all-zero h_k for an unready width would feed
// fabricated features to a classifier.
func (v *StreamVector) Vector() ([]float64, error) {
	if !v.Ready() {
		return nil, entropy.ErrShortSequence
	}
	out := make([]float64, len(v.widths))
	for i, k := range v.widths {
		if k == 1 {
			out[i] = v.exactH1()
		}
	}
	for j, est := range v.wide {
		out[v.wideIdx[j]] = est.EstimateH()
	}
	return out, nil
}

// exactH1 computes h_1 from the running byte histogram.
func (v *StreamVector) exactH1() float64 {
	if v.n1 == 0 {
		return 0
	}
	var sum float64
	for _, c := range v.h1 {
		if c > 1 {
			sum += float64(c) * math.Log2(float64(c))
		}
	}
	return entropy.NormalizeS(sum, v.n1, 1)
}

// Counters returns the total counter footprint (estimation slots plus the
// 256-entry exact byte histogram when h_1 is tracked).
func (v *StreamVector) Counters() int {
	total := 0
	for _, k := range v.widths {
		if k == 1 {
			total += 256
		}
	}
	for _, est := range v.wide {
		total += est.Counters()
	}
	return total
}

// Reset clears all state for reuse on a new flow. Like the sketches' own
// Reset, a reset vector is bit-identical to a freshly constructed one.
func (v *StreamVector) Reset() {
	v.h1 = [256]int{}
	v.n1 = 0
	for _, est := range v.wide {
		est.Reset()
	}
}
