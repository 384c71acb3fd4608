package flow

import (
	"errors"
	"fmt"

	"iustitia/internal/corpus"
	"iustitia/internal/entest"
)

// This file is the per-flow accumulator seam: the one place that knows a
// pending flow holds its first b payload bytes either as the bytes
// themselves (exact calculation) or as an entest.StreamVector sketch
// (constant memory). Everything else writes payload in, asks whether the
// flow is ready, asks for a verdict, and moves snapshots around.

// accumulatorSpec is the engine-wide, immutable half of the seam.
type accumulatorSpec struct {
	b        int // payload bytes consumed before classification
	clf      Classifier
	vclf     VectorClassifier // clf's vector view; non-nil selects sketching
	scfg     entest.StreamConfig
	counters int // one sketch's counter budget, 0 when flows are buffered
}

// newAccumulatorSpec reads cfg.Stream — the only place the engine does —
// so a bad (ε, δ, widths) combination fails at construction.
func newAccumulatorSpec(cfg EngineConfig) (*accumulatorSpec, error) {
	s := &accumulatorSpec{b: cfg.BufferSize, clf: cfg.Classifier}
	if cfg.Stream == nil {
		return s, nil
	}
	vclf, ok := cfg.Classifier.(VectorClassifier)
	if !ok {
		return nil, fmt.Errorf("flow: stream mode needs a VectorClassifier, %T does not implement it", cfg.Classifier)
	}
	s.vclf = vclf
	s.scfg = entest.StreamConfig{
		Epsilon:     cfg.Stream.Epsilon,
		Delta:       cfg.Stream.Delta,
		Widths:      vclf.FeatureWidths(),
		ExpectedLen: cfg.BufferSize,
		Seed:        cfg.Stream.Seed,
		Kind:        cfg.Stream.Sketch,
	}
	probe, err := entest.NewStreamVectorConfig(s.scfg)
	if err != nil {
		return nil, fmt.Errorf("flow: stream mode: %w", err)
	}
	s.counters = probe.Counters()
	return s, nil
}

// newSketch cannot fail: construction is a pure function of scfg, which
// newAccumulatorSpec already built once.
func (s *accumulatorSpec) newSketch() *entest.StreamVector {
	sv, err := entest.NewStreamVectorConfig(s.scfg)
	if err != nil {
		panic(fmt.Sprintf("flow: sketch config accepted at NewEngine no longer builds: %v", err))
	}
	return sv
}

// accumulator is one pending flow's payload state, held by value inside
// its pending struct: a buffered flow fills buf, a sketched flow feeds sv
// (allocated on its first payload byte).
type accumulator struct {
	spec *accumulatorSpec
	buf  []byte
	sv   *entest.StreamVector
}

// consumed is how many payload bytes the flow has accumulated.
func (a *accumulator) consumed() int {
	if a.sv != nil {
		return a.sv.Bytes()
	}
	return len(a.buf)
}

// write accumulates payload, capped at b bytes in total.
func (a *accumulator) write(payload []byte) {
	if need := max(a.spec.b-a.consumed(), 0); len(payload) > need {
		payload = payload[:need]
	}
	if len(payload) == 0 {
		return
	}
	if a.spec.vclf == nil {
		a.buf = append(a.buf, payload...)
		return
	}
	if a.sv == nil {
		a.sv = a.spec.newSketch()
	}
	a.sv.Write(payload)
}

// ready reports whether the flow has consumed its b bytes.
func (a *accumulator) ready() bool { return a.consumed() >= a.spec.b }

// hasData reports whether any payload was accumulated. Flows without data
// are dropped rather than classified at flush and eviction.
func (a *accumulator) hasData() bool { return a.consumed() > 0 }

// classify labels the accumulated payload. A sketch that never saw
// payload, or whose widest feature has not formed one element
// (entropy.ErrShortSequence from Vector), is a classification failure for
// the fault policy to handle; no zero vector is fabricated.
func (a *accumulator) classify() (corpus.Class, error) {
	if a.spec.vclf == nil {
		return a.spec.clf.Classify(a.buf)
	}
	if a.sv == nil {
		return 0, errors.New("stream flow has no sketched payload")
	}
	vec, err := a.sv.Vector()
	if err != nil {
		return 0, fmt.Errorf("stream vector: %w", err)
	}
	return a.spec.vclf.ClassifyVector(vec)
}

// giveSample hands the flow's full payload buffer to the shadow-sample ring
// in exchange for spare, a buffer the ring is done with (or nil). It
// reports false, and trades nothing, when the flow has no sample to give: a
// partial buffer is not representative and a sketch retains no bytes.
func (a *accumulator) giveSample(spare []byte) ([]byte, bool) {
	if a.sv != nil || len(a.buf) < a.spec.b {
		return nil, false
	}
	buf := a.buf
	a.buf = spare[:0]
	return buf, true
}

// reset empties a retired flow's accumulator, keeping the buffer's
// capacity for the record's next flow. A sketch is let go: it has no reset.
func (a *accumulator) reset() {
	a.buf, a.sv = a.buf[:0], nil
}

// retained is the buffer capacity a reset accumulator still holds.
func (a *accumulator) retained() int { return cap(a.buf) }

// adopt takes over a reset accumulator's spare buffer capacity, unless the
// receiver was restored with a buffer of its own.
func (a *accumulator) adopt(old *accumulator) {
	if a.buf == nil {
		a.buf = old.buf[:0]
	}
}

// snapshot returns the wire-portable state: at most one of buf and sketch
// is non-empty, and sketched is the sketch's byte tally (0 for a buffer).
func (a *accumulator) snapshot() (buf, sketch []byte, sketched int) {
	if a.sv != nil {
		return nil, a.sv.ExportState(), a.sv.Bytes()
	}
	return append([]byte(nil), a.buf...), nil, 0
}

// restore rebuilds a flow's accumulator from a snapshot taken on any
// engine. A sketch blob decodes into a fresh sketch; a buffered prefix is
// kept by a buffering engine and replayed into a sketch by a sketching
// one. What cannot be used — a sketch arriving at a buffering engine
// (bytes are unrecoverable from counters), a blob with foreign geometry or
// corruption — is discarded and the flow accumulates from zero.
func (s *accumulatorSpec) restore(buf, sketch []byte) accumulator {
	a := accumulator{spec: s}
	if s.vclf == nil {
		a.buf = buf
		return a
	}
	if len(sketch) > 0 {
		if sv := s.newSketch(); sv.ImportState(sketch) == nil {
			a.sv = sv
			return a
		}
	}
	if len(buf) > 0 {
		a.sv = s.newSketch()
		a.sv.Write(buf)
	}
	return a
}
