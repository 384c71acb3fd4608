package flow

import (
	"errors"
	"testing"
	"time"

	"iustitia/internal/corpus"
	"iustitia/internal/packet"
)

// testTrace generates a deterministic synthetic trace for batch tests.
func testTrace(t *testing.T, flows int, seed int64) *packet.Trace {
	t.Helper()
	cfg := packet.DefaultTraceConfig()
	cfg.Flows = flows
	cfg.Duration = 5 * time.Second
	cfg.MaxFlowBytes = 2 << 10
	cfg.Seed = seed
	trace, err := packet.Generate(cfg, corpus.NewGenerator(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	return trace
}

// newBatchEngine builds a sharded engine with the deterministic
// first-byte classifier used across the flow tests.
func newBatchEngine(t *testing.T, shards int) *ParallelEngine {
	t.Helper()
	pe, err := NewParallelEngine(EngineConfig{
		BufferSize: 256,
		Classifier: ClassifierFunc(func(payload []byte) (corpus.Class, error) {
			return corpus.Class(int(payload[0]) % corpus.NumClasses), nil
		}),
	}, shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pe
}

// replaySequential is the per-packet ground truth a batched replay must
// match exactly.
func replaySequential(t *testing.T, trace *packet.Trace, shards int) *ParallelEngine {
	t.Helper()
	ref := newBatchEngine(t, shards)
	var maxSeen time.Duration
	for i := range trace.Packets {
		if trace.Packets[i].Time > maxSeen {
			maxSeen = trace.Packets[i].Time
		}
		if _, err := ref.Process(&trace.Packets[i]); err != nil {
			t.Fatalf("reference Process: %v", err)
		}
	}
	if _, err := ref.FlushAll(maxSeen + time.Minute); err != nil {
		t.Fatal(err)
	}
	return ref
}

// assertBatchMatches compares a batched replay against the
// sequential reference: identical aggregate stats, the §6 conservation
// law, and an identical label for every flow.
func assertBatchMatches(t *testing.T, trace *packet.Trace, got, want *ParallelEngine) {
	t.Helper()
	gs, ws := got.Stats(), want.Stats()
	if gs != ws {
		t.Errorf("stats diverge from sequential replay:\n  batched:    %+v\n  sequential: %+v", gs, ws)
	}
	if total := gs.Classified + gs.Fallback + gs.Dropped + gs.Pending; gs.Admitted != total {
		t.Errorf("conservation violated: Admitted %d != Classified+Fallback+Dropped+Pending %d", gs.Admitted, total)
	}
	for tuple := range trace.Flows {
		gl, gok := got.Label(tuple)
		wl, wok := want.Label(tuple)
		if gok != wok || gl != wl {
			t.Errorf("flow %v: label (%v,%v) diverges from (%v,%v)", tuple, gl, gok, wl, wok)
		}
	}
}

// routedOf is what ingest's reader builds per frame: the packet and its
// flow ID, hashed once.
func routedOf(p *packet.Packet) Routed { return Routed{ID: IDOf(p.Tuple), Pkt: *p} }

// replayBatches drives trace through ProcessBatch in fixed-size chunks and
// flushes.
func replayBatches(t *testing.T, pe *ParallelEngine, trace *packet.Trace, chunk int) {
	t.Helper()
	var maxSeen time.Duration
	batch := make([]Routed, 0, chunk)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		if failed, err := pe.ProcessBatch(batch); err != nil || failed != 0 {
			t.Fatalf("ProcessBatch: failed=%d err=%v", failed, err)
		}
		batch = batch[:0]
	}
	for i := range trace.Packets {
		if trace.Packets[i].Time > maxSeen {
			maxSeen = trace.Packets[i].Time
		}
		batch = append(batch, routedOf(&trace.Packets[i]))
		if len(batch) == chunk {
			flush()
		}
	}
	flush()
	if _, err := pe.FlushAll(maxSeen + time.Minute); err != nil {
		t.Fatal(err)
	}
}

// TestProcessBatchMatchesSequential proves the batch path is
// observationally identical to per-packet Process.
func TestProcessBatchMatchesSequential(t *testing.T) {
	trace := testTrace(t, 120, 11)
	for _, shards := range []int{1, 3, 4} {
		pe := newBatchEngine(t, shards)
		replayBatches(t, pe, trace, 64)
		assertBatchMatches(t, trace, pe, replaySequential(t, trace, shards))
	}
}

// TestProcessBatchEmpty pins the trivial end of the contract. (A batch is
// a slice of values now, so the old nil-packet case cannot be written.)
func TestProcessBatchEmpty(t *testing.T) {
	pe := newBatchEngine(t, 2)
	if failed, err := pe.ProcessBatch(nil); failed != 0 || err != nil {
		t.Errorf("empty batch: failed=%d err=%v, want 0, nil", failed, err)
	}
	if got := pe.Stats().Admitted; got != 0 {
		t.Errorf("empty batch admitted %d flows, want 0", got)
	}
}

// TestProcessBatchSurfacesClassifyErrors pins strict-mode error
// accounting through the batch path.
func TestProcessBatchSurfacesClassifyErrors(t *testing.T) {
	pe, err := NewParallelEngine(EngineConfig{
		BufferSize: 2,
		Classifier: ClassifierFunc(func([]byte) (corpus.Class, error) {
			return 0, errors.New("always fails")
		}),
	}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	batch := []Routed{
		routedOf(dataPacket(tuple(5000, packet.TCP), 0, "XXXX")),
		routedOf(dataPacket(tuple(5001, packet.TCP), 0, "YYYY")),
	}
	failed, err := pe.ProcessBatch(batch)
	if err == nil || failed != 2 {
		t.Errorf("failed=%d err=%v, want 2 classification failures", failed, err)
	}
}

// TestBatchAllocRegression is the alloc budget gate for the batch path:
// once flows are CDB-resident, routing a batch allocates nothing.
func TestBatchAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	pe := newBatchEngine(t, 4)
	// 32 flows, each classified up front so subsequent packets hit the CDB.
	const flows = 32
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = 'A'
	}
	batch := make([]Routed, flows)
	for i := 0; i < flows; i++ {
		batch[i] = routedOf(&packet.Packet{
			Tuple:   tuple(uint16(6000+i), packet.UDP),
			Time:    time.Duration(i) * time.Millisecond,
			Payload: payload,
		})
	}
	// Warm: classify every flow.
	if failed, err := pe.ProcessBatch(batch); err != nil || failed != 0 {
		t.Fatalf("warm ProcessBatch: failed=%d err=%v", failed, err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := pe.ProcessBatch(batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ProcessBatch allocs/op = %v for %d CDB-hit packets, want 0", allocs, flows)
	}
}
