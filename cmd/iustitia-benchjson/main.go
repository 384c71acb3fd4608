// Command iustitia-benchjson measures the entropy hot path and the
// flow-engine throughput and appends the results as machine-readable JSON
// (BENCH_entropy.json by default). The file is the perf trajectory tracked
// across PRs — each invocation appends one run instead of overwriting, so
// the document accumulates before/after evidence: vector-extraction
// ns/op, B/op, and allocs/op over the paper's payload scales (256 B,
// 1 KiB, 4 KiB) on all ten widths plus the serve-default shape (32 B on
// the CART width subset), and the engine curve over shards 1/2/4/8
// through the sharded flow.ParallelEngine, driven the one way serve
// drives it: ProcessBatch in batches of 64.
//
// Usage:
//
//	iustitia-benchjson -out BENCH_entropy.json [-procs N]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"iustitia/internal/core"
	"iustitia/internal/corpus"
	"iustitia/internal/entropy"
	"iustitia/internal/flow"
	"iustitia/internal/packet"
)

// engineBatchSize is the ProcessBatch chunk used by the engine benchmarks
// — the ingest server's default batch bound.
const engineBatchSize = 64

// benchResult is one benchmark entry of a run.
type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
	FlowsPerSec float64 `json:"flows_per_sec,omitempty"`
	// MaxNsPerOp and P99NsPerOp are per-operation latency tails, recorded
	// by series whose point is the tail (the CDB purge path), not the mean.
	MaxNsPerOp float64 `json:"max_ns_per_op,omitempty"`
	P99NsPerOp float64 `json:"p99_ns_per_op,omitempty"`
	// Procs is the GOMAXPROCS the entry actually ran under.
	Procs int `json:"procs,omitempty"`
}

// benchRun is one invocation's worth of measurements.
type benchRun struct {
	Timestamp  string `json:"timestamp,omitempty"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Note       string `json:"note,omitempty"`
	// AllocImprovement1KiB is no longer measured (the string-keyed
	// baseline it compared against left production code); the field stays
	// so the runs that recorded it survive a load-and-append.
	AllocImprovement1KiB float64            `json:"alloc_improvement_1kib,omitempty"`
	Speedups             map[string]float64 `json:"speedups,omitempty"`
	// Stream holds the constant-memory mode's footprint and accuracy
	// measurements (see stream.go); absent in runs that predate it.
	Stream  *streamReport `json:"stream,omitempty"`
	Results []benchResult `json:"results"`
}

// benchFile is the append-only output document (schema v2).
type benchFile struct {
	Schema string     `json:"schema"`
	Runs   []benchRun `json:"runs"`
}

// legacyFile is the v1 single-run document, migrated on first append.
type legacyFile struct {
	Schema               string        `json:"schema"`
	GoVersion            string        `json:"go_version"`
	GOMAXPROCS           int           `json:"gomaxprocs"`
	AllocImprovement1KiB float64       `json:"alloc_improvement_1kib"`
	Results              []benchResult `json:"results"`
}

// loadTrajectory reads the existing output file, migrating a v1 document
// into the first run of a v2 trajectory. A missing file starts fresh.
func loadTrajectory(path string) (benchFile, error) {
	doc := benchFile{Schema: "iustitia-bench-v2"}
	blob, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return doc, nil
	}
	if err != nil {
		return doc, err
	}
	var probe struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(blob, &probe); err != nil {
		return doc, fmt.Errorf("parse %s: %w", path, err)
	}
	switch probe.Schema {
	case "iustitia-bench-v2":
		if err := json.Unmarshal(blob, &doc); err != nil {
			return doc, fmt.Errorf("parse %s: %w", path, err)
		}
	case "iustitia-bench-v1":
		var v1 legacyFile
		if err := json.Unmarshal(blob, &v1); err != nil {
			return doc, fmt.Errorf("parse %s: %w", path, err)
		}
		doc.Runs = append(doc.Runs, benchRun{
			GoVersion:            v1.GoVersion,
			GOMAXPROCS:           v1.GOMAXPROCS,
			Note:                 "migrated from iustitia-bench-v1",
			AllocImprovement1KiB: v1.AllocImprovement1KiB,
			Results:              v1.Results,
		})
	default:
		return doc, fmt.Errorf("%s: unknown schema %q", path, probe.Schema)
	}
	return doc, nil
}

// deterministicPayload fills a payload with the corpus generator's
// encrypted-class bytes so runs are comparable across machines and PRs.
func deterministicPayload(size int) ([]byte, error) {
	f, err := corpus.NewGenerator(1).File(corpus.Encrypted, size)
	if err != nil {
		return nil, err
	}
	if len(f.Data) < size {
		return nil, fmt.Errorf("generator returned %d bytes, want %d", len(f.Data), size)
	}
	return f.Data[:size], nil
}

// vectorEntry benchmarks vector extraction over one payload and width set.
func vectorEntry(name string, data []byte, widths []int) benchResult {
	r := testing.Benchmark(func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := entropy.VectorAt(data, widths); err != nil {
				b.Fatal(err)
			}
		}
	})
	return benchResult{
		Name:        name,
		NsPerOp:     float64(r.NsPerOp()),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		MBPerSec:    float64(len(data)) * 1e3 / float64(r.NsPerOp()),
		Procs:       runtime.GOMAXPROCS(0),
	}
}

// benchEnv is the trained classifier and trace shared by every engine
// benchmark, so classifier training happens once.
type benchEnv struct {
	clf   flow.Classifier
	trace *packet.Trace
}

func newBenchEnv() (*benchEnv, error) {
	gen := corpus.NewGenerator(9)
	files, err := gen.Pool(30, 1<<10, 4<<10)
	if err != nil {
		return nil, err
	}
	clf, err := core.Train(files, core.TrainConfig{
		Kind: core.KindCART,
		Dataset: core.DatasetConfig{
			Widths: core.PhiPrimeCART, Method: core.MethodPrefix, BufferSize: 32,
		},
	})
	if err != nil {
		return nil, err
	}
	trace, err := packet.Generate(packet.TraceConfig{
		Flows: 2000, Duration: 60 * time.Second, UDPFraction: 0.2,
		CleanCloseFraction: 0.4, RSTFraction: 0.1,
		MinFlowBytes: 256, MaxFlowBytes: 4 << 10,
		MeanPacketGap: 50 * time.Millisecond, Seed: 9,
	}, corpus.NewGenerator(9))
	if err != nil {
		return nil, err
	}
	// vectorClf exposes the model's widths so the same environment drives
	// both the buffered engine and stream mode (which needs a
	// flow.VectorClassifier).
	return &benchEnv{clf: vectorClf{clf}, trace: trace}, nil
}

// replay pumps the trace through a fresh engine in ProcessBatch chunks
// and returns the wall time. The §6 conservation law is asserted after the
// final flush: a batched path that loses or duplicates a packet is a
// wrong answer, not a fast one.
func (env *benchEnv) replay(shards int, stream *flow.StreamConfig) (time.Duration, error) {
	pe, err := flow.NewParallelEngine(flow.EngineConfig{
		BufferSize: 32, Classifier: env.clf,
		CDB: flow.CDBConfig{PurgeOnClose: true}, Stream: stream,
	}, shards, nil)
	if err != nil {
		return 0, err
	}
	pkts := env.trace.Packets
	batch := make([]flow.Routed, 0, engineBatchSize)
	start := time.Now()
	for i := range pkts {
		batch = append(batch, flow.Routed{ID: flow.IDOf(pkts[i].Tuple), Pkt: pkts[i]})
		if len(batch) < engineBatchSize && i+1 < len(pkts) {
			continue
		}
		if failed, err := pe.ProcessBatch(batch); err != nil || failed != 0 {
			return 0, fmt.Errorf("ProcessBatch: failed=%d err=%w", failed, err)
		}
		batch = batch[:0]
	}
	if _, err := pe.FlushAll(pkts[len(pkts)-1].Time + time.Hour); err != nil {
		return 0, err
	}
	elapsed := time.Since(start)
	st := pe.Stats()
	if total := st.Classified + st.Fallback + st.Dropped + st.Pending; st.Admitted != total {
		return 0, fmt.Errorf("conservation violated (shards=%d): Admitted %d != %d",
			shards, st.Admitted, total)
	}
	return elapsed, nil
}

// engineEntry reports end-to-end flows/sec for one shard count of the
// engine curve (best of three fresh runs).
func (env *benchEnv) engineEntry(name string, shards int, stream *flow.StreamConfig) (benchResult, error) {
	nFlows := len(env.trace.Flows)
	nPackets := len(env.trace.Packets)
	best := benchResult{
		Name:  name,
		Procs: runtime.GOMAXPROCS(0),
	}
	for rep := 0; rep < 3; rep++ {
		elapsed, err := env.replay(shards, stream)
		if err != nil {
			return benchResult{}, err
		}
		fps := float64(nFlows) / elapsed.Seconds()
		if fps > best.FlowsPerSec {
			best.FlowsPerSec = fps
			best.NsPerOp = float64(elapsed.Nanoseconds()) / float64(nPackets)
		}
	}
	return best, nil
}

func run(out string, procs int) error {
	runtime.GOMAXPROCS(procs)
	doc, err := loadTrajectory(out)
	if err != nil {
		return err
	}
	cur := benchRun{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Speedups:   map[string]float64{},
	}

	// The entry names keep the "/packed" suffix of the runs that also timed
	// a "/legacy" baseline, so the trajectory reads as one series.
	shapes := []struct {
		name   string
		bytes  int
		widths []int
	}{
		{"32B/w1-3-4-5", 32, core.PhiPrimeCART},
		{"256B/w1-10/packed", 256, core.AllWidths},
		{"1KiB/w1-10/packed", 1 << 10, core.AllWidths},
		{"4KiB/w1-10/packed", 4 << 10, core.AllWidths},
	}
	for _, s := range shapes {
		data, err := deterministicPayload(s.bytes)
		if err != nil {
			return err
		}
		entry := vectorEntry("entropy.VectorAt/"+s.name, data, s.widths)
		cur.Results = append(cur.Results, entry)
		fmt.Fprintf(os.Stderr, "%-56s %12.0f ns/op %8d B/op %6d allocs/op\n",
			entry.Name, entry.NsPerOp, entry.BytesPerOp, entry.AllocsPerOp)
	}

	env, err := newBenchEnv()
	if err != nil {
		return err
	}
	var shards1FPS float64
	for _, shards := range []int{1, 2, 4, 8} {
		name := fmt.Sprintf("flow.ParallelEngine/shards-%d/batch/trace-2000flows", shards)
		entry, err := env.engineEntry(name, shards, nil)
		if err != nil {
			return err
		}
		cur.Results = append(cur.Results, entry)
		if shards == 1 {
			shards1FPS = entry.FlowsPerSec
		}
		fmt.Fprintf(os.Stderr, "%-56s %12.0f ns/pkt %14.0f flows/sec\n",
			entry.Name, entry.NsPerOp, entry.FlowsPerSec)
	}

	if err := purgeTailSection(&cur); err != nil {
		return err
	}

	if err := streamSection(env, &cur, shards1FPS); err != nil {
		return err
	}

	doc.Runs = append(doc.Runs, cur)
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "appended run %d to %s (GOMAXPROCS %d of %d CPUs)\n",
		len(doc.Runs), out, cur.GOMAXPROCS, cur.NumCPU)

	return nil
}

func main() {
	out := flag.String("out", "BENCH_entropy.json", "output JSON path (appended to, not overwritten)")
	procs := flag.Int("procs", runtime.NumCPU(), "GOMAXPROCS for the run (recorded per result)")
	flag.Parse()
	if *procs < 1 {
		fmt.Fprintln(os.Stderr, "iustitia-benchjson: -procs must be >= 1")
		os.Exit(1)
	}
	if err := run(*out, *procs); err != nil {
		fmt.Fprintln(os.Stderr, "iustitia-benchjson:", err)
		os.Exit(1)
	}
}
