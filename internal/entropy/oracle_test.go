package entropy

import (
	"fmt"
	"math"
	"sort"
)

// This file is the differential-test oracle: the original one-scan-per-width
// calculator, string-keyed for k >= 2. It shares nothing with refine.go but
// NormalizeS and CountKGrams, so agreement on every bit of h_k is evidence
// about the refinement, not about shared code.

// legacyVectorAt is the reference implementation of VectorAt.
func legacyVectorAt(data []byte, widths []int) ([]float64, error) {
	if len(widths) == 0 {
		return nil, fmt.Errorf("%w: empty width set", ErrBadWidths)
	}
	vec := make([]float64, len(widths))
	for i, k := range widths {
		h, err := legacyH(data, k)
		if err != nil {
			return nil, err
		}
		vec[i] = h
	}
	return vec, nil
}

// legacyH is the reference implementation of H.
func legacyH(data []byte, k int) (float64, error) {
	if k <= 0 {
		return 0, fmt.Errorf("%w: element width %d is not positive", ErrBadWidths, k)
	}
	if len(data) < k {
		return 0, ErrShortSequence
	}
	n := len(data) - k + 1 // number of elements
	var sumMLogM float64
	if k == 1 {
		counts := countBytes(data)
		for _, c := range counts {
			if c > 1 {
				sumMLogM += float64(c) * math.Log2(float64(c))
			}
		}
	} else {
		counts, err := CountKGrams(data, k)
		if err != nil {
			return 0, err
		}
		sumMLogM = sumCLogC(counts)
	}
	return NormalizeS(sumMLogM, n, k), nil
}

// countBytes is the k=1 histogram.
func countBytes(data []byte) *[256]int {
	var counts [256]int
	for _, b := range data {
		counts[b]++
	}
	return &counts
}

// sumCLogC returns Σ c·log2(c) over the count map. Map iteration order is
// random in Go and float addition is not associative, so the counts are
// first folded into a count-of-counts histogram and summed in sorted
// order, making the result bit-identical across runs.
func sumCLogC(counts map[string]int) float64 {
	countOfCounts := make(map[int]int)
	for _, c := range counts {
		if c > 1 {
			countOfCounts[c]++
		}
	}
	distinct := make([]int, 0, len(countOfCounts))
	for c := range countOfCounts {
		distinct = append(distinct, c)
	}
	sort.Ints(distinct)
	var sum float64
	for _, c := range distinct {
		sum += float64(countOfCounts[c]) * float64(c) * math.Log2(float64(c))
	}
	return sum
}
