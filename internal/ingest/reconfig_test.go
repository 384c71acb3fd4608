package ingest

import (
	"context"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// TestStatusLineUptimeForwardCompat pins the uptime_ms compatibility
// contract in both directions: a line from a server predating the key
// still parses (Uptime zero), and a current line parsed by a reader that
// knows nothing about uptime_ms is unaffected because unknown keys are
// skipped (covered by TestParseStatusLineFromDocument's future_key).
func TestStatusLineUptimeForwardCompat(t *testing.T) {
	old := statusLinePrefix + "node=x state=healthy received=3 admitted=3 quarantined=0 shed=0 " +
		"engine_admitted=1 engine_classified=1 engine_pending=0 engine_fallback=0 " +
		"engine_shed=0 engine_dropped=0 q_text=1 q_binary=0 q_encrypted=0 " +
		"checkpoint_age_ms=-1"
	ns, err := ParseStatusLine(old)
	if err != nil {
		t.Fatalf("pre-uptime line rejected: %v", err)
	}
	if ns.Uptime != 0 {
		t.Errorf("Uptime = %v from a line without the key, want 0", ns.Uptime)
	}

	cur := NodeStatus{Node: "x", State: StateHealthy, CheckpointAge: NoCheckpoint, Uptime: 2500 * time.Millisecond}
	line := cur.StatusLine()
	if !strings.Contains(line, " uptime_ms=2500 ") {
		t.Errorf("rendered line missing uptime_ms: %q", line)
	}
	got, err := ParseStatusLine(line)
	if err != nil {
		t.Fatal(err)
	}
	if got.Uptime != cur.Uptime {
		t.Errorf("Uptime = %v, want %v", got.Uptime, cur.Uptime)
	}
}

// TestServerUptimeOnStatusLine checks a live server reports a sane,
// monotonic uptime through the status listener.
func TestServerUptimeOnStatusLine(t *testing.T) {
	status := listenLocal(t)
	l := listenLocal(t)
	s := startServer(t, Config{
		Engine:         newTestEngine(t, 1),
		Listeners:      []net.Listener{l},
		StatusListener: status,
		Workers:        1,
		NodeName:       "up",
	})
	defer shutdownServer(t, s)

	time.Sleep(20 * time.Millisecond)
	ns, err := ParseStatusLine(statusDump(t, status.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	if ns.Uptime <= 0 || ns.Uptime > time.Minute {
		t.Errorf("uptime = %v, want a small positive duration", ns.Uptime)
	}
	if up2 := s.Uptime(); up2 < ns.Uptime {
		t.Errorf("uptime went backwards: status %v then %v", ns.Uptime, up2)
	}
}

// TestServerReconfigureMidBurst flips the overflow policy, batch bound,
// and engine pending limit while a trace is streaming, then checks the
// transport conservation law held through the transitions and every flow
// still classifies exactly as the in-process reference replay — the gate
// discipline means a policy flip never lands mid-frame.
func TestServerReconfigureMidBurst(t *testing.T) {
	trace := testTrace(t, 40, 97)
	ref := replayReference(t, trace, 2)

	l := listenLocal(t)
	s := startServer(t, Config{
		Engine:    newTestEngine(t, 2),
		Listeners: []net.Listener{l},
		Workers:   2,
		Batch:     64,
		Overflow:  OverflowBlock,
	})

	client, err := NewClient(ClientConfig{Dial: func() (net.Conn, error) {
		return net.Dial("tcp", l.Addr().String())
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Interleave sends with live reconfigs at several points in the burst.
	steps := map[int]func(){
		len(trace.Packets) / 4: func() {
			s.Reconfigure(func() {
				if err := s.SetOverflow(OverflowShed); err != nil {
					t.Errorf("SetOverflow: %v", err)
				}
				if err := s.SetBatch(4); err != nil {
					t.Errorf("SetBatch: %v", err)
				}
			})
		},
		len(trace.Packets) / 2: func() {
			s.Reconfigure(func() {
				if err := s.cfg.Engine.SetMaxPending(1 << 16); err != nil {
					t.Errorf("SetMaxPending: %v", err)
				}
				if err := s.SetOverflow(OverflowBlock); err != nil {
					t.Errorf("SetOverflow back: %v", err)
				}
			})
		},
		3 * len(trace.Packets) / 4: func() {
			s.Reconfigure(func() {
				if err := s.SetBatch(64); err != nil {
					t.Errorf("SetBatch back: %v", err)
				}
			})
		},
	}
	for i := range trace.Packets {
		if step := steps[i]; step != nil {
			step()
		}
		if err := client.Send(&trace.Packets[i]); err != nil {
			t.Fatalf("Send(%d): %v", i, err)
		}
	}
	client.Close()

	waitFor(t, 10*time.Second, "packets admitted", func() bool {
		return s.Stats().Admitted == len(trace.Packets)
	})
	shutdownServer(t, s)

	st := s.Stats()
	assertConservation(t, st)
	// The queue never filled (big capacity, blocking policy at the edges),
	// so the shed window must not have dropped anything: the replay is
	// byte-for-byte complete and verdicts must match the reference exactly.
	if st.Shed != 0 || st.Quarantined != 0 {
		t.Fatalf("reconfig burst lost packets: %+v", st)
	}
	assertEnginesMatch(t, trace, s.cfg.Engine, ref)

	if got := s.OverflowPolicy(); got != OverflowBlock {
		t.Errorf("final overflow policy = %v, want block", got)
	}
	if got := s.Batch(); got != 64 {
		t.Errorf("final batch = %d, want 64", got)
	}
}

// TestSetBatchFromOne pins Batch as a size: a server built with a batch
// of one is retuned like any other, and non-positive bounds are refused.
func TestSetBatchFromOne(t *testing.T) {
	l := listenLocal(t)
	s := startServer(t, Config{
		Engine:    newTestEngine(t, 1),
		Listeners: []net.Listener{l},
		Workers:   1,
		Batch:     1,
	})
	defer shutdownServer(t, s)
	if err := s.SetBatch(8); err != nil || s.Batch() != 8 {
		t.Errorf("SetBatch(8) on a batch-of-one server: err %v, batch %d", err, s.Batch())
	}
	if err := s.SetBatch(0); err == nil {
		t.Error("SetBatch(0) accepted")
	}
}

// TestStatusConnSilentClientDeadline checks the status listener's
// deadlines: a client that connects and says nothing gets the dump after
// the command timeout and its connection closed, and while it idles the
// listener keeps serving other probes — one stalled admin client cannot
// wedge the node.
func TestStatusConnSilentClientDeadline(t *testing.T) {
	status := listenLocal(t)
	l := listenLocal(t)
	s := startServer(t, Config{
		Engine:         newTestEngine(t, 1),
		Listeners:      []net.Listener{l},
		StatusListener: status,
		Workers:        1,
		NodeName:       "quiet",
	})

	silent, err := net.Dial("tcp", status.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()

	// Probes from other clients are served while the silent one idles.
	if _, err := ParseStatusLine(statusDump(t, status.Addr().String())); err != nil {
		t.Fatalf("probe while another client stalls: %v", err)
	}

	// The silent connection is answered (dump) and closed once the command
	// deadline lapses — read to EOF must complete well inside the test
	// timeout rather than hanging forever.
	_ = silent.SetReadDeadline(time.Now().Add(10 * time.Second))
	doc, err := io.ReadAll(silent)
	if err != nil {
		t.Fatalf("silent connection read: %v", err)
	}
	if _, err := ParseStatusLine(string(doc)); err != nil {
		t.Errorf("silent connection got no dump: %v", err)
	}

	// The stalled-then-closed connection must not block drain.
	shutdownServer(t, s)
}

// shutdownServer drains s with a generous deadline.
func shutdownServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}
