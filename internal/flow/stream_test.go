package flow

import (
	"errors"
	"testing"
	"time"

	"iustitia/internal/corpus"
	"iustitia/internal/entest"
	"iustitia/internal/entropy"
	"iustitia/internal/packet"
)

// entropyVecClassifier is a VectorClassifier whose label depends only on
// the exact h_1 feature — which stream mode also computes exactly — so a
// stream engine and a buffered engine must agree flow for flow.
type entropyVecClassifier struct {
	widths       []int
	vectorCalls  int
	payloadCalls int
}

func newVecClassifier() *entropyVecClassifier {
	return &entropyVecClassifier{widths: []int{1, 3}}
}

func (c *entropyVecClassifier) FeatureWidths() []int { return c.widths }

func (c *entropyVecClassifier) Classify(p []byte) (corpus.Class, error) {
	c.payloadCalls++
	vec, err := entropy.VectorAt(p, c.widths)
	if err != nil {
		return 0, err
	}
	return c.label(vec), nil
}

func (c *entropyVecClassifier) ClassifyVector(vec []float64) (corpus.Class, error) {
	c.vectorCalls++
	return c.label(vec), nil
}

func (c *entropyVecClassifier) label(vec []float64) corpus.Class {
	switch h := vec[0]; {
	case h < 0.45:
		return corpus.Text
	case h < 0.92:
		return corpus.Binary
	default:
		return corpus.Encrypted
	}
}

func streamEngineConfig(clf Classifier, b int) EngineConfig {
	return EngineConfig{
		BufferSize: b,
		Classifier: clf,
		Stream:     &StreamConfig{Epsilon: 0.3, Delta: 0.3, Seed: 11},
	}
}

func assertConservation(t *testing.T, s EngineStats) {
	t.Helper()
	if s.Admitted != s.Classified+s.Fallback+s.Dropped+s.Pending {
		t.Fatalf("conservation violated: admitted %d != classified %d + fallback %d + dropped %d + pending %d",
			s.Admitted, s.Classified, s.Fallback, s.Dropped, s.Pending)
	}
}

func TestStreamModeRequiresVectorClassifier(t *testing.T) {
	plain := ClassifierFunc(func([]byte) (corpus.Class, error) { return corpus.Text, nil })
	if _, err := NewEngine(streamEngineConfig(plain, 64)); err == nil {
		t.Fatal("stream mode accepted a payload-only classifier")
	}
}

func TestStreamModeRejectsBadParams(t *testing.T) {
	cfg := streamEngineConfig(newVecClassifier(), 64)
	cfg.Stream.Epsilon = 1.5
	if _, err := NewEngine(cfg); err == nil {
		t.Fatal("stream mode accepted epsilon outside (0, 1)")
	}
}

// The tentpole behaviour: a stream engine classifies flows on the same
// trigger as a buffered one — through ClassifyVector, with no payload
// buffer ever held — and agrees with the buffered engine whenever the
// deciding features are exact in both modes.
func TestStreamEngineClassifiesWithoutBuffering(t *testing.T) {
	const b = 256
	vclf := newVecClassifier()
	stream, err := NewEngine(streamEngineConfig(vclf, b))
	if err != nil {
		t.Fatal(err)
	}
	exactClf := newVecClassifier()
	exact, err := NewEngine(EngineConfig{BufferSize: b, Classifier: exactClf})
	if err != nil {
		t.Fatal(err)
	}

	gen := corpus.NewGenerator(21)
	for i, class := range []corpus.Class{corpus.Text, corpus.Binary, corpus.Encrypted} {
		f, err := gen.File(class, b)
		if err != nil {
			t.Fatal(err)
		}
		tp := tuple(uint16(3000+i), packet.TCP)
		var streamV, exactV Verdict
		for off := 0; off < b; off += 64 {
			chunk := string(f.Data[off : off+64])
			at := time.Duration(off) * time.Millisecond
			if streamV, err = stream.Process(dataPacket(tp, at, chunk)); err != nil {
				t.Fatal(err)
			}
			if exactV, err = exact.Process(dataPacket(tp, at, chunk)); err != nil {
				t.Fatal(err)
			}
			if off+64 < b {
				if streamV.Routed {
					t.Fatalf("flow %d routed before its %d bytes streamed", i, b)
				}
				// White box: mid-flow state is the sketch, never a buffer.
				fl := stream.table.pend[IDOf(tp)]
				if fl == nil || fl.acc.buf != nil || fl.acc.sv == nil || fl.acc.consumed() != off+64 {
					t.Fatalf("flow %d pending state: %+v, want nil buffer, live sketch, %d bytes", i, fl, off+64)
				}
			}
		}
		if !streamV.Classified || !streamV.Routed {
			t.Fatalf("flow %d: stream verdict %+v, want classified+routed", i, streamV)
		}
		if streamV.Queue != exactV.Queue {
			t.Fatalf("flow %d (%s): stream labelled %v, buffered engine %v",
				i, class, streamV.Queue, exactV.Queue)
		}
	}
	if vclf.vectorCalls == 0 || vclf.payloadCalls != 0 {
		t.Fatalf("stream engine made %d vector and %d payload classifications, want only vector calls",
			vclf.vectorCalls, vclf.payloadCalls)
	}
	assertConservation(t, stream.Stats())
	if got := stream.StreamCounters(); got <= 0 {
		t.Fatalf("StreamCounters = %d, want positive counter budget", got)
	}
	if got := exact.StreamCounters(); got != 0 {
		t.Fatalf("buffered engine StreamCounters = %d, want 0", got)
	}
}

// Satellite: a flow shorter than the widest feature has no honest vector.
// At flush the readiness error must flow through the fault policy — strict
// engines surface entropy.ErrShortSequence, tolerant engines route the
// flow to the fallback queue — never a silently fabricated h_k = 0 label.
func TestStreamShortFlowFlush(t *testing.T) {
	strictClf := &entropyVecClassifier{widths: []int{1, 5}}
	strict, err := NewEngine(streamEngineConfig(strictClf, 64))
	if err != nil {
		t.Fatal(err)
	}
	tp := tuple(4000, packet.TCP)
	if _, err := strict.Process(dataPacket(tp, 0, "abc")); err != nil {
		t.Fatal(err)
	}
	if _, err := strict.FlushAll(time.Second); !errors.Is(err, entropy.ErrShortSequence) {
		t.Fatalf("strict flush of a 3-byte flow against a 5-wide feature: err = %v, want ErrShortSequence", err)
	}
	assertConservation(t, strict.Stats())

	tolerantCfg := streamEngineConfig(&entropyVecClassifier{widths: []int{1, 5}}, 64)
	tolerantCfg.Faults = FaultPolicy{Tolerate: true}
	tolerantCfg.FallbackClass = corpus.Binary
	tolerant, err := NewEngine(tolerantCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tolerant.Process(dataPacket(tp, 0, "abc")); err != nil {
		t.Fatal(err)
	}
	if _, err := tolerant.FlushAll(time.Second); err != nil {
		t.Fatal(err)
	}
	s := tolerant.Stats()
	if s.Fallback != 1 || s.QueueCounts[corpus.Binary] != 1 {
		t.Fatalf("tolerant flush: fallback %d, binary queue %d, want 1 and 1", s.Fallback, s.QueueCounts[corpus.Binary])
	}
	assertConservation(t, s)
}

// Mid-flow sketches must survive a node checkpoint: export pending state
// half-way through every flow, restore into a fresh engine, finish the
// flows on both — labels and verdicts must match exactly.
func TestStreamCheckpointRoundTrip(t *testing.T) {
	const b = 256
	build := func() *ParallelEngine {
		cfg := streamEngineConfig(nil, b)
		pe, err := NewParallelEngine(cfg, 2, []Classifier{newVecClassifier(), newVecClassifier()})
		if err != nil {
			t.Fatal(err)
		}
		return pe
	}
	orig := build()
	gen := corpus.NewGenerator(31)
	flows := make(map[int][]byte)
	for i := 0; i < 6; i++ {
		f, err := gen.File(corpus.Class(i%corpus.NumClasses), b)
		if err != nil {
			t.Fatal(err)
		}
		flows[i] = f.Data
		tp := tuple(uint16(5000+i), packet.TCP)
		if _, err := orig.Process(dataPacket(tp, 0, string(f.Data[:b/2]))); err != nil {
			t.Fatal(err)
		}
	}

	blob := orig.ExportPending()
	restored := build()
	if n, err := restored.ImportPending(blob); err != nil || n != 6 {
		t.Fatalf("ImportPending = (%d, %v), want (6, nil)", n, err)
	}

	for i, data := range flows {
		tp := tuple(uint16(5000+i), packet.TCP)
		at := time.Second
		vo, err := orig.Process(dataPacket(tp, at, string(data[b/2:])))
		if err != nil {
			t.Fatal(err)
		}
		vr, err := restored.Process(dataPacket(tp, at, string(data[b/2:])))
		if err != nil {
			t.Fatal(err)
		}
		if !vr.Classified || vo != vr {
			t.Fatalf("flow %d: original verdict %+v, restored %+v", i, vo, vr)
		}
	}
	so, sr := orig.Stats(), restored.Stats()
	if so.Classified != sr.Classified || so.QueueCounts != sr.QueueCounts {
		t.Fatalf("stats diverged: original %+v, restored %+v", so, sr)
	}
}

// A flow-table migration carries the sketch: the gaining stream engine
// resumes the flow mid-stream and classifies at the same byte it would
// have on the losing node.
func TestStreamMigrationMovesSketch(t *testing.T) {
	const b = 256
	src, err := NewEngine(streamEngineConfig(newVecClassifier(), b))
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewEngine(streamEngineConfig(newVecClassifier(), b))
	if err != nil {
		t.Fatal(err)
	}
	gen := corpus.NewGenerator(7)
	f, err := gen.File(corpus.Encrypted, b)
	if err != nil {
		t.Fatal(err)
	}
	tp := tuple(6000, packet.TCP)
	if _, err := src.Process(dataPacket(tp, 0, string(f.Data[:100]))); err != nil {
		t.Fatal(err)
	}

	fx, err := decodeFlowExport(encodeFlowExport(src.takeFlows(func(ID) bool { return true })))
	if err != nil {
		t.Fatal(err)
	}
	if n := dst.installFlows(fx, true); n != 1 {
		t.Fatalf("installFlows = %d, want 1", n)
	}
	fl := dst.table.pend[IDOf(tp)]
	if fl == nil || fl.acc.sv == nil || fl.acc.consumed() != 100 || fl.acc.buf != nil {
		t.Fatalf("migrated flow state: %+v, want a live sketch with 100 bytes seen", fl)
	}
	v, err := dst.Process(dataPacket(tp, time.Second, string(f.Data[100:])))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Classified {
		t.Fatalf("verdict after migration %+v, want classified", v)
	}
	assertConservation(t, src.Stats())
	assertConservation(t, dst.Stats())
	if src.Stats().MigratedOut != 1 || dst.Stats().MigratedIn != 1 {
		t.Fatalf("migration counters: out %d, in %d", src.Stats().MigratedOut, dst.Stats().MigratedIn)
	}
}

// Eviction under MaxPending classifies the victim on its partial sketch,
// mirroring EvictClassifyPartial's buffered behaviour.
func TestStreamEvictClassifyPartial(t *testing.T) {
	cfg := streamEngineConfig(newVecClassifier(), 256)
	cfg.MaxPending = 1
	cfg.Eviction = EvictClassifyPartial
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := corpus.NewGenerator(17)
	f, err := gen.File(corpus.Encrypted, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Process(dataPacket(tuple(7000, packet.TCP), 0, string(f.Data))); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Process(dataPacket(tuple(7001, packet.TCP), time.Second, "x")); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Evicted != 1 || s.Classified != 1 || s.Pending != 1 {
		t.Fatalf("stats after eviction: %+v, want 1 evicted, 1 classified on its partial sketch, 1 pending", s)
	}
	assertConservation(t, s)
}

// The sketch seed is engine-wide, not per-shard: a sketch exported by one
// shard must restore bit-exactly on a shard with a different engine seed.
func TestStreamShardSeedUniform(t *testing.T) {
	cfgA := streamEngineConfig(newVecClassifier(), 128)
	cfgA.Seed = 1
	cfgB := streamEngineConfig(newVecClassifier(), 128)
	cfgB.Seed = 99 // different engine seed, same Stream.Seed
	a, err := NewEngine(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEngine(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if a.acc.scfg.Seed != b.acc.scfg.Seed || a.acc.scfg.Kind != b.acc.scfg.Kind {
		t.Fatalf("sketch configs diverged across engine seeds: %+v vs %+v", a.acc.scfg, b.acc.scfg)
	}
	if _, err := entest.NewStreamVectorConfig(a.acc.scfg); err != nil {
		t.Fatal(err)
	}
}

// StreamCounters on a ParallelEngine answers from shard 0 alone. That is
// sound only if every shard derives the identical counter budget — this
// pins the invariant: NewParallelEngine copies one EngineConfig per
// shard, varying only the random-skip Seed, which the sketch geometry
// must not depend on.
func TestParallelStreamCountersUniform(t *testing.T) {
	cfg := streamEngineConfig(newVecClassifier(), 128)
	cfg.Seed = 42 // shard seeds become 42, 43, ... — budget must not care
	pe, err := NewParallelEngine(cfg, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := pe.StreamCounters()
	if want <= 0 {
		t.Fatalf("StreamCounters = %d, want positive budget in stream mode", want)
	}
	for i, shard := range pe.shards {
		if got := shard.StreamCounters(); got != want {
			t.Fatalf("shard %d budget %d diverges from shard 0's %d", i, got, want)
		}
	}
	// Buffered engines answer 0 on every shard for the same reason.
	buffered, err := NewParallelEngine(EngineConfig{BufferSize: 32, Classifier: firstByteClassifier()}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, shard := range buffered.shards {
		if got := shard.StreamCounters(); got != 0 {
			t.Fatalf("buffered shard %d budget %d, want 0", i, got)
		}
	}
}
