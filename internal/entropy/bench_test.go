package entropy

import (
	"fmt"
	"testing"

	"iustitia/internal/corpus"
)

// classPayloads returns one size-byte payload per content shape the
// refinement behaves differently on: corpus text (long repeats, most
// positions stay alive for many widths), corpus binary, corpus encrypted
// (almost nothing repeats past k = 2) and all zeros (one class that never
// splits — every position stays alive to the deepest level).
func classPayloads(tb testing.TB, size int) map[string][]byte {
	tb.Helper()
	gen := corpus.NewGenerator(1)
	out := map[string][]byte{"zeros": make([]byte, size)}
	for _, class := range []corpus.Class{corpus.Text, corpus.Binary, corpus.Encrypted} {
		f, err := gen.File(class, size)
		if err != nil {
			tb.Fatal(err)
		}
		if len(f.Data) < size {
			tb.Fatalf("%v file has %d bytes, want %d", class, len(f.Data), size)
		}
		out[class.String()] = f.Data[:size]
	}
	return out
}

// BenchmarkVectorAt times the two shapes serve runs — the 32-byte default
// buffer on the CART width subset and a 1 KiB buffer on all ten widths —
// over each content shape.
func BenchmarkVectorAt(b *testing.B) {
	shapes := []struct {
		size   int
		widths []int
	}{
		{32, []int{1, 3, 4, 5}},
		{1024, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
	}
	for _, s := range shapes {
		payloads := classPayloads(b, s.size)
		for _, name := range []string{"text", "binary", "encrypted", "zeros"} {
			data := payloads[name]
			b.Run(fmt.Sprintf("%s/%d", name, s.size), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(s.size))
				for i := 0; i < b.N; i++ {
					if _, err := VectorAt(data, s.widths); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
