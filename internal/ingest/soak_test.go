package ingest

import (
	"context"
	"net"
	"testing"
	"time"

	"iustitia/internal/corpus"
	"iustitia/internal/flow"
	"iustitia/internal/packet"
	"iustitia/internal/persist"
)

// TestChaosConnSoak is the acceptance test for the networked ingest path:
// a full trace is replayed through a chaos transport that chunks writes,
// injects stalls, and tears the connection mid-frame several times. The
// reconnecting client must deliver every packet exactly once despite the
// tears — the server-side engine ends byte-for-byte equivalent to a
// sequential in-process replay — the conservation law must hold exactly,
// and the graceful drain must produce a checkpoint a fresh engine can
// resume from.
func TestChaosConnSoak(t *testing.T) {
	cfg := packet.DefaultTraceConfig()
	cfg.Flows = 150
	cfg.Duration = 10 * time.Second
	cfg.MaxFlowBytes = 4 << 10
	cfg.Seed = 42
	trace := testTraceFrom(t, cfg)

	// Size the reset schedule off the actual byte volume so the tears
	// land spread across the replay, whatever the trace generator emits.
	totalBytes := 0
	var buf []byte
	for i := range trace.Packets {
		var err error
		buf, err = AppendFrame(buf[:0], &trace.Packets[i])
		if err != nil {
			t.Fatal(err)
		}
		totalBytes += len(buf)
	}
	// The client coalesces frames into writes of up to 64 KiB, so the
	// replay is a dozen-odd Write calls, not one per frame: the per-write
	// faults are scheduled densely enough to land on that few.
	chaos := NewConnChaos(ConnChaosConfig{
		Seed:       7,
		ChunkRate:  0.5,
		StallEvery: 3,
		Stall:      time.Millisecond,
		ResetEvery: totalBytes / 8,
		MaxResets:  6,
	})

	engine := newTestEngine(t, 2)
	var checkpoint []byte
	l := listenLocal(t)
	s := startServer(t, Config{
		Engine:            engine,
		Listeners:         []net.Listener{l},
		Workers:           2,
		Overflow:          OverflowBlock,
		ReadTimeout:       5 * time.Second,
		IdleTimeout:       5 * time.Second,
		OnFinalCheckpoint: func(snap []byte) { checkpoint = snap },
	})

	addr := l.Addr().String()
	client, err := NewClient(ClientConfig{
		Dial: func() (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return chaos.Wrap(c), nil
		},
		BackoffBase: time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
		Seed:        9,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range trace.Packets {
		if err := client.Send(&trace.Packets[i]); err != nil {
			t.Fatalf("Send(%d): %v", i, err)
		}
	}
	if err := client.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	// Every packet must land despite the tears: wait for the last frames
	// to clear the workers, then drain.
	deadline := time.Now().Add(30 * time.Second)
	for s.Stats().Admitted != len(trace.Packets) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: sent %d, stats %+v, chaos %+v, client %+v",
				len(trace.Packets), s.Stats(), chaos.Stats(), client.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if s.State() != StateStopped {
		t.Fatalf("state = %v after drain, want stopped", s.State())
	}

	// The chaos schedule must actually have bitten.
	ccs := chaos.Stats()
	cls := client.Stats()
	if ccs.Resets < 3 {
		t.Errorf("chaos injected %d resets, want >= 3 (ResetEvery %d over %d bytes)", ccs.Resets, totalBytes/8, totalBytes)
	}
	if cls.Reconnects < 3 {
		t.Errorf("client reconnected %d times, want >= 3", cls.Reconnects)
	}
	if ccs.Chunked == 0 || ccs.Stalls == 0 {
		t.Errorf("chaos schedule incomplete: chunked %d, stalls %d", ccs.Chunked, ccs.Stalls)
	}

	// Exact transport accounting: every frame is admitted or quarantined,
	// nothing shed, one quarantine event per torn frame.
	st := s.Stats()
	assertConservation(t, st)
	if st.Admitted != len(trace.Packets) {
		t.Errorf("admitted %d packets, sent %d: lost or duplicated frames", st.Admitted, len(trace.Packets))
	}
	if st.Quarantined != ccs.Resets {
		t.Errorf("quarantined %d events for %d mid-frame tears", st.Quarantined, ccs.Resets)
	}
	if st.Shed != 0 {
		t.Errorf("block policy shed %d packets", st.Shed)
	}
	if cls.Resent != ccs.Resets {
		t.Errorf("client resent %d frames for %d tears", cls.Resent, ccs.Resets)
	}

	// Zero duplicated / lost verdicts: the networked engine must agree
	// with a sequential in-process replay on every counter and label.
	assertEnginesMatch(t, trace, engine, replayReference(t, trace, 2))

	// The drain checkpoint resumes into a fresh engine with the same
	// shard layout...
	if len(checkpoint) == 0 {
		t.Fatal("drain produced no final checkpoint")
	}
	restored := newTestEngine(t, 2)
	if err := restored.ImportCheckpoint(checkpoint); err != nil {
		t.Fatalf("ImportCheckpoint: %v", err)
	}
	ds, rs := engine.Stats(), restored.Stats()
	if rs.Classified != ds.Classified || rs.Admitted != ds.Admitted ||
		rs.Fallback != ds.Fallback || rs.Dropped != ds.Dropped ||
		rs.Shed != ds.Shed || rs.QueueCounts != ds.QueueCounts {
		t.Errorf("restored stats diverge:\n  drained:  %+v\n  restored: %+v", ds, rs)
	}
	if rs.CDB.Size != ds.CDB.Size {
		t.Errorf("restored CDB size %d, drained %d", rs.CDB.Size, ds.CDB.Size)
	}

	// ...where an already classified flow hits the CDB on its next
	// packet: no re-buffering after resume.
	if tuple, ok := cdbResidentFlow(trace, engine); ok {
		for i := range trace.Packets {
			p := trace.Packets[i]
			if p.Tuple == tuple && p.IsData() {
				v, err := restored.Process(&p)
				if err != nil {
					t.Fatalf("resume Process: %v", err)
				}
				if !v.FromCDB {
					t.Errorf("resumed flow %v not served from CDB: %+v", tuple, v)
				}
				break
			}
		}
	} else {
		t.Log("no CDB-resident flow survived the replay; resume-hit check skipped")
	}

	// ...and refuses a mismatched shard layout outright.
	wrong := newTestEngine(t, 3)
	if err := wrong.ImportCheckpoint(checkpoint); err == nil {
		t.Error("checkpoint for 2 shards imported into 3-shard engine")
	}

	// The checkpoint must also survive the persist framing used on disk.
	framed := persist.Encode(persist.KindParallelCheckpoint, checkpoint)
	kind, payload, err := persist.Decode(framed)
	if err != nil || kind != persist.KindParallelCheckpoint {
		t.Fatalf("persist round-trip: kind %v, err %v", kind, err)
	}
	again := newTestEngine(t, 2)
	if err := again.ImportCheckpoint(payload); err != nil {
		t.Fatalf("ImportCheckpoint after persist round-trip: %v", err)
	}
}

// cdbResidentFlow finds a flow that was classified and not closed, so its
// record is still in the CDB after the replay.
func cdbResidentFlow(trace *packet.Trace, e *flow.ParallelEngine) (packet.FiveTuple, bool) {
	for tuple, info := range trace.Flows {
		if info.ClosedBy != 0 {
			continue
		}
		if _, ok := e.Label(tuple); ok {
			return tuple, true
		}
	}
	return packet.FiveTuple{}, false
}

// testTraceFrom generates a trace from an explicit config.
func testTraceFrom(t *testing.T, cfg packet.TraceConfig) *packet.Trace {
	t.Helper()
	trace, err := packet.Generate(cfg, corpus.NewGenerator(cfg.Seed+1))
	if err != nil {
		t.Fatal(err)
	}
	return trace
}
