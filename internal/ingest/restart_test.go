package ingest

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"
)

// TestServerDrainDeadlineMidFrame covers the second force-close path of
// an expired drain: a reader blocked *inside a frame* (the client wrote a
// header and part of the payload, then went silent). Unlike
// TestServerDrainDeadline — whose reader is parked in enqueue behind a
// stalled worker — this reader is parked in a socket Read, so the drain
// deadline must tear it out by closing the connection, and the torn
// frame must be accounted as exactly one quarantine event so the
// conservation law closes.
func TestServerDrainDeadlineMidFrame(t *testing.T) {
	engine := newTestEngine(t, 1)
	l := listenLocal(t)
	s := startServer(t, Config{
		Engine:    engine,
		Listeners: []net.Listener{l},
		Workers:   1,
	})
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Three complete frames, then a torn one: header plus half the
	// payload, and the client stalls without closing.
	const complete = 3
	var buf []byte
	for i := 0; i < complete; i++ {
		p := testPacket(i)
		buf, err = AppendFrame(buf[:0], &p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(buf); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	p := testPacket(complete)
	buf, err = AppendFrame(buf[:0], &p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(buf[:frameHeaderSize+(len(buf)-frameHeaderSize)/2]); err != nil {
		t.Fatalf("torn write: %v", err)
	}
	waitFor(t, 5*time.Second, "complete frames admitted", func() bool {
		return s.Stats().Admitted == complete
	})

	// The reader now sits in Peek waiting for the rest of the frame, so a
	// graceful drain can never finish on its own.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	err = s.Shutdown(ctx)
	if err == nil || !strings.Contains(err.Error(), "drain deadline") {
		t.Fatalf("Shutdown error = %v, want drain deadline", err)
	}
	if s.State() != StateStopped {
		t.Fatalf("state = %v after forced drain, want stopped", s.State())
	}
	st := s.Stats()
	assertConservation(t, st)
	if st.Admitted != complete {
		t.Errorf("admitted %d, want %d", st.Admitted, complete)
	}
	if st.Quarantined != 1 {
		t.Errorf("quarantined %d events, want exactly 1 for the torn frame", st.Quarantined)
	}
	if st.Shed != 0 {
		t.Errorf("shed %d packets with an empty pipeline", st.Shed)
	}
}

// TestClientResendAcrossServerRestart restarts the server underneath a
// streaming client, mid-batch, with the tear landing mid-frame: the old
// instance drains into a final checkpoint, the new instance resumes from
// it on the same address, and the client's reconnect+resend must carry
// the batch across the gap with nothing lost and nothing duplicated —
// the combined transport ledger of both instances adds up to exactly the
// frames sent.
func TestClientResendAcrossServerRestart(t *testing.T) {
	trace := testTrace(t, 60, 17)

	// Schedule exactly one chaos tear roughly halfway through the byte
	// stream. The cut is strictly mid-frame (chaosConn.Write guarantees
	// it), so the first instance always sees a torn prefix — one
	// quarantine — and the client's writer always gets a write error —
	// one resend.
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
	chaos := NewConnChaos(ConnChaosConfig{
		Seed:       11,
		ResetEvery: totalBytes / 2,
		MaxResets:  1,
	})

	engine1 := newTestEngine(t, 2)
	l1 := listenLocal(t)
	addr := l1.Addr().String()
	var checkpoint []byte
	s1 := startServer(t, Config{
		Engine:            engine1,
		Listeners:         []net.Listener{l1},
		Workers:           2,
		Overflow:          OverflowBlock,
		OnFinalCheckpoint: func(snap []byte) { checkpoint = snap },
	})

	// The restart happens inside the client's redial: when the tear
	// closes the connection, the reconnect finds the old instance already
	// drained and a successor listening on the same address, resumed from
	// the final checkpoint. Sequencing it here makes the interleaving
	// deterministic — the server is always mid-restart exactly when the
	// client comes back.
	var s2 *Server
	var engine2 = newTestEngine(t, 2)
	dials := 0
	client, err := NewClient(ClientConfig{
		Dial: func() (net.Conn, error) {
			dials++
			if dials == 2 {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				if err := s1.Shutdown(ctx); err != nil {
					t.Errorf("first instance Shutdown: %v", err)
				}
				if len(checkpoint) == 0 {
					t.Error("first instance drained without a final checkpoint")
				} else if err := engine2.ImportCheckpoint(checkpoint); err != nil {
					t.Errorf("successor ImportCheckpoint: %v", err)
				}
				l2, err := rebind(addr, 5*time.Second)
				if err != nil {
					return nil, err
				}
				s2 = startServer(t, Config{
					Engine:    engine2,
					Listeners: []net.Listener{l2},
					Workers:   2,
					Overflow:  OverflowBlock,
				})
			}
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return chaos.Wrap(c), nil
		},
		BackoffBase: time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
		Seed:        13,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range trace.Packets {
		if err := client.Send(&trace.Packets[i]); err != nil {
			t.Fatalf("Send(%d): %v", i, err)
		}
		if i == len(trace.Packets)/8 {
			// The client coalesces: without this the whole trace could ride
			// one Write and the tear fall in its first frame, leaving the
			// first instance nothing to admit.
			if err := client.Flush(); err != nil {
				t.Fatalf("Flush(%d): %v", i, err)
			}
		}
	}
	// The writer goroutine ran Dial; Flush orders its writes to s2 before
	// the reads below.
	if err := client.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if s2 == nil {
		t.Fatal("chaos never tore the stream: the restart path was not exercised")
	}
	waitFor(t, 10*time.Second, "successor admitted the remainder", func() bool {
		return s1.Stats().Admitted+s2.Stats().Admitted == len(trace.Packets)
	})
	client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s2.Shutdown(ctx); err != nil {
		t.Fatalf("successor Shutdown: %v", err)
	}

	// The client saw exactly one tear and rode through it.
	cls := client.Stats()
	if cls.Resent != 1 {
		t.Errorf("client resent %d frames, want exactly 1", cls.Resent)
	}
	if cls.Reconnects != 1 {
		t.Errorf("client reconnected %d times, want exactly 1", cls.Reconnects)
	}
	if cls.Sent != len(trace.Packets) {
		t.Errorf("client sent %d frames, want %d", cls.Sent, len(trace.Packets))
	}

	// Exactly-once across the restart: each instance's ledger closes on
	// its own, the torn prefix is the old instance's single quarantine,
	// and the two admitted counts partition the batch — no frame lost in
	// the gap, none delivered twice.
	st1, st2 := s1.Stats(), s2.Stats()
	assertConservation(t, st1)
	assertConservation(t, st2)
	if st1.Quarantined != 1 {
		t.Errorf("first instance quarantined %d events, want 1 (the torn prefix)", st1.Quarantined)
	}
	if st2.Quarantined != 0 {
		t.Errorf("successor quarantined %d events, want 0", st2.Quarantined)
	}
	if st1.Admitted+st2.Admitted != len(trace.Packets) {
		t.Errorf("admitted %d+%d packets across the restart, want %d",
			st1.Admitted, st2.Admitted, len(trace.Packets))
	}
	if st1.Admitted == 0 || st2.Admitted == 0 {
		t.Errorf("batch did not span the restart: admitted %d then %d", st1.Admitted, st2.Admitted)
	}
	if st1.Shed != 0 || st2.Shed != 0 {
		t.Errorf("block policy shed %d+%d packets", st1.Shed, st2.Shed)
	}

	// The successor's engine carried the predecessor's verdicts across
	// the checkpoint and added its own: no classification work vanished
	// with the restart.
	e1, e2 := engine1.Stats(), engine2.Stats()
	if e2.Classified+e2.Fallback < e1.Classified+e1.Fallback {
		t.Errorf("successor labelled %d+%d flows, predecessor had %d+%d: verdicts lost in handoff",
			e2.Classified, e2.Fallback, e1.Classified, e1.Fallback)
	}
	if e2.Pending != 0 {
		t.Errorf("successor still has %d pending flows after drain", e2.Pending)
	}
}

// rebind listens on a concrete address that was just released by a
// closed listener, retrying briefly in case the kernel has not finished
// tearing the old socket down.
func rebind(addr string, patience time.Duration) (net.Listener, error) {
	deadline := time.Now().Add(patience)
	for {
		l, err := net.Listen("tcp", addr)
		if err == nil || time.Now().After(deadline) {
			return l, err
		}
		time.Sleep(5 * time.Millisecond)
	}
}
