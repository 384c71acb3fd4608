// Package entropy implements the information-theoretic primitives behind
// Iustitia: k-gram frequency counting over byte sequences, normalized
// entropy h_k (Formula 1 of the paper), entropy vectors H_F and H_b, and
// the Kullback-Leibler and Jensen-Shannon divergence measures used to
// validate the paper's hypotheses.
//
// Throughout the package "entropy" means normalized entropy: the Shannon
// entropy of the k-gram frequency distribution divided by log2(|f_k|),
// where f_k is the set of all possible k-byte elements (|f_k| = 2^(8k)).
// A normalized entropy of 0 means every element is identical; 1 means the
// elements are uniformly distributed over the whole element set.
package entropy

import (
	"errors"
	"fmt"
	"math"
)

// ErrShortSequence is returned when a sequence is too short to contain a
// single element of the requested width.
var ErrShortSequence = errors.New("entropy: sequence shorter than element width")

// ErrBadWidths is returned when a requested feature-width set is empty or
// contains a non-positive width.
var ErrBadWidths = errors.New("entropy: invalid feature widths")

// ErrLongSequence is returned for a sequence of 4 GiB or more: the exact
// calculator indexes positions with 32 bits.
var ErrLongSequence = errors.New("entropy: sequence too long")

// bitsPerByte is the log2 of the byte alphabet size.
const bitsPerByte = 8

// ElementSetBits returns log2(|f_k|) = 8k, the number of bits needed to
// describe one element of width k. The element-set cardinality itself
// (2^(8k)) overflows int64 for k >= 8, so all normalization works in log
// space via this function.
func ElementSetBits(k int) float64 {
	return float64(bitsPerByte * k)
}

// CountKGrams returns the frequency of every consecutive k-byte element in
// data. The map is keyed by the raw element bytes. For data of length m
// there are m-k+1 elements.
func CountKGrams(data []byte, k int) (map[string]int, error) {
	if k <= 0 {
		return nil, fmt.Errorf("entropy: element width %d is not positive", k)
	}
	if len(data) < k {
		return nil, ErrShortSequence
	}
	counts := make(map[string]int, min(len(data)-k+1, 1<<12))
	for i := 0; i+k <= len(data); i++ {
		counts[string(data[i:i+k])]++
	}
	return counts, nil
}

// H computes the normalized entropy h_k of data treated as a sequence of
// consecutive k-byte elements over the element set f_k (Formula 1):
//
//	h_k = log(m-k+1) - (1/(m-k+1)) * sum_i m_ik*log(m_ik),  normalized by log|f_k|
//
// The result is in [0, 1]. H returns ErrShortSequence when len(data) < k.
func H(data []byte, k int) (float64, error) {
	widths := [1]int{k}
	var vec [1]float64
	if _, err := AppendVector(vec[:0], data, widths[:]); err != nil {
		return 0, err
	}
	return vec[0], nil
}

// NormalizeS converts S_k = sum_i m_ik*log2(m_ik) (over n elements of width
// k) into the normalized entropy h_k per Formula 1. It is shared by the
// exact calculator above and the streaming estimator in package entest,
// which approximates S_k rather than h_k directly.
func NormalizeS(sumMLogM float64, n, k int) float64 {
	if n <= 0 {
		return 0
	}
	if n == 1 {
		// A single element carries no diversity information.
		return 0
	}
	h := math.Log2(float64(n)) - sumMLogM/float64(n)
	norm := h / ElementSetBits(k)
	// Estimation error can nudge the value slightly outside [0,1]; clamp so
	// downstream classifiers always see a valid normalized entropy.
	return math.Min(1, math.Max(0, norm))
}

// Vector computes the entropy vector <h_1, ..., h_width> of data. It
// returns ErrShortSequence when len(data) < width, because the widest
// feature would be undefined.
func Vector(data []byte, width int) ([]float64, error) {
	if width <= 0 {
		return nil, fmt.Errorf("%w: vector width %d is not positive", ErrBadWidths, width)
	}
	if len(data) < width {
		return nil, ErrShortSequence
	}
	widths := make([]int, width)
	for k := 1; k <= width; k++ {
		widths[k-1] = k
	}
	return VectorAt(data, widths)
}

// VectorAt computes only the features named in widths (1-based element
// widths, e.g. {1, 3, 4, 5}) and returns them in the same order. This is
// the form used after feature selection, when only a sparse subset of
// h_1..h_10 is needed per flow. The widths must be non-empty and positive
// (ErrBadWidths otherwise), and data must be at least as long as each
// width (ErrShortSequence otherwise).
func VectorAt(data []byte, widths []int) ([]float64, error) {
	return AppendVector(nil, data, widths)
}

// AppendVector is VectorAt appending the features to dst: with a dst of
// sufficient capacity (a stack array, a reused buffer) the exact path
// allocates nothing. On error dst is returned unchanged.
func AppendVector(dst []float64, data []byte, widths []int) ([]float64, error) {
	if err := checkWidths(data, widths); err != nil {
		return dst, err
	}
	n := len(dst)
	dst = append(dst, make([]float64, len(widths))...)
	st := refinerPool.Get().(*refiner)
	st.vector(dst[n:], data, widths)
	refinerPool.Put(st)
	return dst, nil
}

// checkWidths is the argument contract every entry point shares.
func checkWidths(data []byte, widths []int) error {
	if uint64(len(data)) > math.MaxUint32 {
		return fmt.Errorf("%w: %d bytes", ErrLongSequence, len(data))
	}
	if len(widths) == 0 {
		return fmt.Errorf("%w: empty width set", ErrBadWidths)
	}
	for _, k := range widths {
		if k <= 0 {
			return fmt.Errorf("%w: element width %d is not positive", ErrBadWidths, k)
		}
		if len(data) < k {
			return ErrShortSequence
		}
	}
	return nil
}

// Prefix returns the entropy vector H_b of the first b bytes of data (or of
// all of data when len(data) < b), with the given feature widths.
func Prefix(data []byte, b int, widths []int) ([]float64, error) {
	if b <= 0 {
		return nil, fmt.Errorf("entropy: prefix length %d is not positive", b)
	}
	if b > len(data) {
		b = len(data)
	}
	return VectorAt(data[:b], widths)
}
