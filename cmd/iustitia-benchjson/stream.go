package main

// Stream-mode measurements. Alongside the buffered engine curve, each run
// records the constant-memory classification path: flows/sec through
// flow.ParallelEngine with Stream set (both sketch backends), the resident
// heap bytes held per pending flow versus the buffered engine, and a
// differential harness reporting the estimated-vs-exact h_k error per
// corpus class. The numbers land in the benchRun's "stream" object so the
// trajectory shows the accuracy/memory trade the (δ,ε) sketches buy.

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"iustitia/internal/core"
	"iustitia/internal/corpus"
	"iustitia/internal/entest"
	"iustitia/internal/entropy"
	"iustitia/internal/flow"
	"iustitia/internal/packet"
)

// Sketch parameters for every stream-mode measurement: the serve command's
// defaults, so the recorded error matches what -stream ships with.
const (
	streamEpsilon = 0.25
	streamDelta   = 0.25
	streamSeed    = 7
)

// Resident-memory probe shape: flows half-filled against b=1 KiB, so every
// flow is pending (neither classified nor empty) when the heap is read.
const (
	residentFlows    = 512
	residentFeed     = 512
	residentBufBytes = 1 << 10
)

// vectorClf adapts *core.Classifier to flow.VectorClassifier: the core
// model already classifies pre-extracted vectors, it just names its widths
// accessor differently.
type vectorClf struct{ *core.Classifier }

func (c vectorClf) FeatureWidths() []int { return c.Widths() }

// streamReport is the stream-mode block of one benchRun.
type streamReport struct {
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
	// ExactBytesPerFlow is the buffered engine's resident heap bytes per
	// pending flow under the same probe load, the baseline the backends
	// are compared against.
	ExactBytesPerFlow float64         `json:"exact_resident_bytes_per_flow"`
	Backends          []streamBackend `json:"backends"`
	// Footprint is the buffered-vs-sketched resident-bytes curve over
	// growing buffer budgets: the sketch footprint is constant in b, the
	// buffered footprint linear, so the curve shows where each sketch
	// backend overtakes the buffered path.
	Footprint []footprintPoint `json:"footprint_crossover,omitempty"`
}

// footprintPoint is one buffer budget's resident bytes per pending flow,
// buffered versus each sketch backend.
type footprintPoint struct {
	BufBytes          int                `json:"buf_bytes"`
	Flows             int                `json:"probe_flows"`
	ExactBytesPerFlow float64            `json:"exact_resident_bytes_per_flow"`
	Backends          map[string]float64 `json:"resident_bytes_per_flow"`
}

// streamBackend is one sketch backend's footprint and accuracy.
type streamBackend struct {
	Backend string `json:"backend"`
	// Counters is the per-flow counter budget (g·z summed over widths,
	// plus the k-gram windows) — the constant the mode's memory is
	// constant in.
	Counters             int              `json:"counters_per_flow"`
	ResidentBytesPerFlow float64          `json:"resident_bytes_per_flow"`
	Errors               []streamClassErr `json:"h_error_by_class"`
}

// streamClassErr is the estimated-vs-exact h_k error of one (class, width)
// cell, aggregated over independent trials.
type streamClassErr struct {
	Class   string  `json:"class"`
	Width   int     `json:"width"`
	MeanAbs float64 `json:"mean_abs_error"`
	MaxAbs  float64 `json:"max_abs_error"`
}

// streamSection appends the stream-mode engine curve to cur.Results and
// fills cur.Stream. exactFPS is the buffered shards-1 flows/sec, the
// denominator of the stream-vs-exact speedup ratios.
func streamSection(env *benchEnv, cur *benchRun, exactFPS float64) error {
	rep := &streamReport{Epsilon: streamEpsilon, Delta: streamDelta}
	exactBytes, err := residentBytesPerFlow(env.clf, nil, residentBufBytes, residentFeed, residentFlows)
	if err != nil {
		return err
	}
	rep.ExactBytesPerFlow = exactBytes

	widths := env.clf.(vectorClf).FeatureWidths()
	for _, kind := range []entest.SketchKind{entest.SketchLall, entest.SketchCC} {
		scfg := &flow.StreamConfig{
			Epsilon: streamEpsilon, Delta: streamDelta, Sketch: kind, Seed: streamSeed,
		}
		for _, shards := range []int{1, 4} {
			name := fmt.Sprintf("flow.ParallelEngine/stream-%s/shards-%d/batch/trace-2000flows",
				kind, shards)
			entry, err := env.engineEntry(name, shards, scfg)
			if err != nil {
				return err
			}
			cur.Results = append(cur.Results, entry)
			fmt.Fprintf(os.Stderr, "%-56s %12.0f ns/pkt %14.0f flows/sec\n",
				entry.Name, entry.NsPerOp, entry.FlowsPerSec)
			if shards == 1 && exactFPS > 0 {
				key := fmt.Sprintf("engine_stream_%s_over_exact_shards1", kind)
				cur.Speedups[key] = entry.FlowsPerSec / exactFPS
			}
		}

		resident, err := residentBytesPerFlow(env.clf, scfg, residentBufBytes, residentFeed, residentFlows)
		if err != nil {
			return err
		}
		probe, err := entest.NewStreamVectorConfig(entest.StreamConfig{
			Epsilon: streamEpsilon, Delta: streamDelta, Widths: widths,
			ExpectedLen: residentBufBytes, Seed: streamSeed, Kind: kind,
		})
		if err != nil {
			return err
		}
		errs, err := streamErrorHarness(kind, widths)
		if err != nil {
			return err
		}
		rep.Backends = append(rep.Backends, streamBackend{
			Backend:              kind.String(),
			Counters:             probe.Counters(),
			ResidentBytesPerFlow: resident,
			Errors:               errs,
		})
		fmt.Fprintf(os.Stderr, "stream-%-4s %6d counters/flow %10.0f resident B/flow (buffered: %.0f)\n",
			kind, probe.Counters(), resident, exactBytes)
	}
	if err := footprintCrossover(env, rep); err != nil {
		return err
	}
	cur.Stream = rep
	return nil
}

// footprintCrossover probes resident bytes per pending flow at growing
// buffer budgets. The flow count scales down with b so the probe heap
// stays bounded (~32 MiB): per-flow attribution is unaffected.
func footprintCrossover(env *benchEnv, rep *streamReport) error {
	for _, b := range []int{4 << 10, 64 << 10, 1 << 20} {
		flows := residentFlows
		if budget := (32 << 20) / b; budget < flows {
			flows = budget
		}
		feed := b / 2 // half-filled, so every probe flow stays pending
		exact, err := residentBytesPerFlow(env.clf, nil, b, feed, flows)
		if err != nil {
			return err
		}
		point := footprintPoint{
			BufBytes: b, Flows: flows,
			ExactBytesPerFlow: exact,
			Backends:          map[string]float64{},
		}
		for _, kind := range []entest.SketchKind{entest.SketchLall, entest.SketchCC} {
			scfg := &flow.StreamConfig{
				Epsilon: streamEpsilon, Delta: streamDelta, Sketch: kind, Seed: streamSeed,
			}
			resident, err := residentBytesPerFlow(env.clf, scfg, b, feed, flows)
			if err != nil {
				return err
			}
			point.Backends[kind.String()] = resident
		}
		rep.Footprint = append(rep.Footprint, point)
		fmt.Fprintf(os.Stderr, "footprint b=%-8d buffered %10.0f B/flow  lall %10.0f  cc %10.0f (%d flows)\n",
			b, point.ExactBytesPerFlow, point.Backends["lall"], point.Backends["cc"], flows)
	}
	return nil
}

// residentBytesPerFlow feeds residentFlows half-filled flows into a fresh
// single-shard engine and reports the heap growth per pending flow
// (GC-settled HeapAlloc delta). stream == nil measures the buffered
// baseline. The shared payload slice is allocated before the first heap
// read, so only per-flow engine state is attributed.
func residentBytesPerFlow(clf flow.Classifier, stream *flow.StreamConfig, bufBytes, feed, flows int) (float64, error) {
	payload, err := deterministicPayload(feed)
	if err != nil {
		return 0, err
	}
	eng, err := flow.NewEngine(flow.EngineConfig{
		BufferSize: bufBytes, Classifier: clf,
		CDB: flow.CDBConfig{PurgeOnClose: true}, Stream: stream,
	})
	if err != nil {
		return 0, err
	}
	pkts := make([]packet.Packet, flows)
	for i := range pkts {
		pkts[i] = packet.Packet{
			Tuple: packet.FiveTuple{
				SrcIP: [4]byte{10, 0, byte(i >> 8), byte(i)}, DstIP: [4]byte{10, 1, 1, 1},
				SrcPort: uint16(20000 + i), DstPort: 443, Transport: packet.TCP,
			},
			Time:    time.Duration(i) * time.Microsecond,
			Flags:   packet.FlagACK,
			Payload: payload,
		}
	}
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range pkts {
		if _, err := eng.Process(&pkts[i]); err != nil {
			return 0, err
		}
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if st := eng.Stats(); st.Pending != flows {
		return 0, fmt.Errorf("resident probe: %d flows pending, want %d", st.Pending, flows)
	}
	delta := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	if delta < 0 {
		delta = 0
	}
	runtime.KeepAlive(eng)
	return delta / float64(flows), nil
}

// streamErrorHarness runs the differential exact-vs-stream comparison: for
// each corpus class it sketches fresh deterministic payloads and reports
// the absolute h_k error against entropy.VectorAt's exact vector, per
// width, aggregated over independently seeded trials.
func streamErrorHarness(kind entest.SketchKind, widths []int) ([]streamClassErr, error) {
	const payloadLen = 4 << 10
	const trials = 9
	var out []streamClassErr
	for class := corpus.Class(0); class < corpus.NumClasses; class++ {
		meanAbs := make([]float64, len(widths))
		maxAbs := make([]float64, len(widths))
		for trial := 0; trial < trials; trial++ {
			f, err := corpus.NewGenerator(int64(100+trial)).File(class, payloadLen)
			if err != nil {
				return nil, err
			}
			data := f.Data[:payloadLen]
			exact, err := entropy.VectorAt(data, widths)
			if err != nil {
				return nil, err
			}
			sv, err := entest.NewStreamVectorConfig(entest.StreamConfig{
				Epsilon: streamEpsilon, Delta: streamDelta, Widths: widths,
				ExpectedLen: payloadLen, Seed: int64(1000 + trial), Kind: kind,
			})
			if err != nil {
				return nil, err
			}
			if _, err := sv.Write(data); err != nil {
				return nil, err
			}
			est, err := sv.Vector()
			if err != nil {
				return nil, err
			}
			for j := range widths {
				d := math.Abs(est[j] - exact[j])
				meanAbs[j] += d / trials
				if d > maxAbs[j] {
					maxAbs[j] = d
				}
			}
		}
		for j, k := range widths {
			out = append(out, streamClassErr{
				Class: class.String(), Width: k,
				MeanAbs: meanAbs[j], MaxAbs: maxAbs[j],
			})
		}
	}
	return out, nil
}
