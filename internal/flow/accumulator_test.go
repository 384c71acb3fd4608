package flow

import (
	"testing"

	"iustitia/internal/corpus"
)

// accTestB is the contract tests' b; accSpecs builds one spec per
// accumulator implementation over the same classifier, whose label
// depends only on the exact h_1 — computed exactly by both — so a
// buffered and a sketched accumulator fed the same bytes must agree.
const accTestB = 128

func accSpecs(t *testing.T) map[string]*accumulatorSpec {
	t.Helper()
	buffered, err := newAccumulatorSpec(EngineConfig{BufferSize: accTestB, Classifier: newVecClassifier()})
	if err != nil {
		t.Fatal(err)
	}
	sketched, err := newAccumulatorSpec(streamEngineConfig(newVecClassifier(), accTestB))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*accumulatorSpec{"buffered": buffered, "sketched": sketched}
}

func accPayload(t *testing.T, class corpus.Class, n int) []byte {
	t.Helper()
	f, err := corpus.NewGenerator(41).File(class, n)
	if err != nil {
		t.Fatal(err)
	}
	return f.Data
}

func mustClassify(t *testing.T, a *accumulator) corpus.Class {
	t.Helper()
	label, err := a.classify()
	if err != nil {
		t.Fatal(err)
	}
	return label
}

// TestAccumulatorContract is the seam's contract, run over both
// implementations.
func TestAccumulatorContract(t *testing.T) {
	data := accPayload(t, corpus.Encrypted, 2*accTestB)
	for name, spec := range accSpecs(t) {
		t.Run(name, func(t *testing.T) {
			a := accumulator{spec: spec}
			if _, ok := a.giveSample(nil); a.hasData() || a.ready() || ok {
				t.Fatalf("fresh accumulator: hasData %v ready %v gave a sample %v", a.hasData(), a.ready(), ok)
			}
			a.write(nil)
			if a.hasData() {
				t.Fatal("empty write counted as data")
			}

			// ready flips exactly at b.
			a.write(data[:accTestB-1])
			if !a.hasData() || a.ready() || a.consumed() != accTestB-1 {
				t.Fatalf("at b-1: hasData %v ready %v consumed %d", a.hasData(), a.ready(), a.consumed())
			}
			// write caps at b, however much arrives and however often.
			a.write(data[accTestB-1:])
			a.write(data)
			if !a.ready() || a.consumed() != accTestB {
				t.Fatalf("after overfill: ready %v consumed %d, want ready at exactly %d", a.ready(), a.consumed(), accTestB)
			}
			want := mustClassify(t, &a)
			spare := make([]byte, 3, 2*accTestB)
			if s, ok := a.giveSample(spare); ok != (name == "buffered") || ok != (len(s) == accTestB) {
				t.Errorf("giveSample() = %d bytes, %v; want the full buffer from buffered and nothing from sketched", len(s), ok)
			} else if ok && (a.hasData() || a.retained() != cap(spare)) {
				t.Errorf("after giveSample: hasData %v retained %d, want the emptied spare (cap %d)", a.hasData(), a.retained(), cap(spare))
			}

			// snapshot → restore mid-flow round-trips to the same verdict,
			// and the wire form carries exactly one of buffer and sketch.
			half := accumulator{spec: spec}
			half.write(data[:accTestB/2])
			buf, sketch, sketched := half.snapshot()
			if (len(buf) > 0) == (len(sketch) > 0) {
				t.Fatalf("snapshot carries buf %d B and sketch %d B, want exactly one", len(buf), len(sketch))
			}
			if name == "sketched" && sketched != accTestB/2 || name == "buffered" && sketched != 0 {
				t.Errorf("snapshot byte tally %d", sketched)
			}
			back := spec.restore(buf, sketch)
			if back.consumed() != accTestB/2 {
				t.Fatalf("restored accumulator consumed %d, want %d", back.consumed(), accTestB/2)
			}
			back.write(data[accTestB/2:])
			if got := mustClassify(t, &back); !back.ready() || got != want {
				t.Errorf("restored flow: ready %v label %v, uninterrupted label %v", back.ready(), got, want)
			}
		})
	}
}

// TestAccumulatorRestoreMatrix pins the one restore function's conversion
// rules: every (source, destination) pair plus a corrupt sketch blob.
// Same-kind and buffered→sketched imports keep the consumed prefix;
// sketched→buffered and the corrupt blob restart from zero. Every restored
// flow then fills and classifies like an uninterrupted one.
func TestAccumulatorRestoreMatrix(t *testing.T) {
	const prefix = 40
	specs := accSpecs(t)
	for _, class := range []corpus.Class{corpus.Text, corpus.Encrypted} {
		data := accPayload(t, class, accTestB)
		ref := accumulator{spec: specs["buffered"]}
		ref.write(data)
		want := mustClassify(t, &ref)

		for _, c := range []struct {
			src, dst string
			corrupt  bool
			kept     int
		}{
			{src: "buffered", dst: "buffered", kept: prefix},
			{src: "buffered", dst: "sketched", kept: prefix},
			{src: "sketched", dst: "sketched", kept: prefix},
			{src: "sketched", dst: "buffered", kept: 0},
			{src: "sketched", dst: "sketched", corrupt: true, kept: 0},
		} {
			src := accumulator{spec: specs[c.src]}
			src.write(data[:prefix])
			buf, sketch, _ := src.snapshot()
			if c.corrupt {
				sketch = []byte{0xde, 0xad, 0xbe, 0xef}
			}
			a := specs[c.dst].restore(buf, sketch)
			if a.consumed() != c.kept {
				t.Errorf("%s→%s (corrupt %v): kept %d bytes, want %d", c.src, c.dst, c.corrupt, a.consumed(), c.kept)
				continue
			}
			a.write(data[c.kept:])
			if got := mustClassify(t, &a); !a.ready() || got != want {
				t.Errorf("%s→%s (corrupt %v): ready %v label %v, want %v", c.src, c.dst, c.corrupt, a.ready(), got, want)
			}
		}
	}
}
