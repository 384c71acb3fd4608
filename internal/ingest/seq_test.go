package ingest

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"testing"
	"time"

	"iustitia/internal/flow"
	"iustitia/internal/persist"
)

// TestFrameSeqRoundTrip interleaves version-1 and version-2 frames on one
// stream: the reader must decode both and report the carried sequence (or
// zero) per frame.
func TestFrameSeqRoundTrip(t *testing.T) {
	trace := testTrace(t, 4, 51)
	var buf []byte
	var err error
	wantSeqs := []uint64{7, 0, 8, 1 << 40}
	for i, seq := range wantSeqs {
		p := &trace.Packets[i%len(trace.Packets)]
		if seq == 0 {
			buf, err = AppendFrame(buf, p)
		} else {
			buf, err = AppendFrameSeq(buf, p, seq)
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	fr := NewFrameReader(bytes.NewReader(buf), 0, nil)
	for i, want := range wantSeqs {
		if _, err := fr.Next(); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got := fr.LastSeq(); got != want {
			t.Errorf("frame %d: LastSeq %d, want %d", i, got, want)
		}
	}
	if fr.Quarantined() != 0 {
		t.Errorf("clean stream quarantined %d events", fr.Quarantined())
	}
}

// TestFrameSeqZeroRejected pins both halves of the zero-sequence rule:
// the writer refuses to emit it, and a hand-tampered version-2 frame
// carrying sequence 0 is quarantined (it would corrupt dedup state),
// without losing the valid frame behind it.
func TestFrameSeqZeroRejected(t *testing.T) {
	trace := testTrace(t, 2, 52)
	if _, err := AppendFrameSeq(nil, &trace.Packets[0], 0); err == nil {
		t.Error("AppendFrameSeq accepted sequence 0")
	}

	tampered, err := AppendFrameSeq(nil, &trace.Packets[0], 9)
	if err != nil {
		t.Fatal(err)
	}
	// The CRC covers the payload only, so zeroing the header's sequence
	// field forges exactly the corruption the reader must catch.
	binary.BigEndian.PutUint64(tampered[11:19], 0)
	good, err := AppendFrameSeq(nil, &trace.Packets[1], 10)
	if err != nil {
		t.Fatal(err)
	}

	fr := NewFrameReader(bytes.NewReader(append(tampered, good...)), 0, nil)
	if _, err := fr.Next(); err != nil {
		t.Fatalf("valid trailing frame lost: %v", err)
	}
	if got := fr.LastSeq(); got != 10 {
		t.Errorf("LastSeq %d, want the trailing frame's 10", got)
	}
	if fr.Quarantined() == 0 {
		t.Error("zero-sequence frame not quarantined")
	}
}

// TestNodeCheckpointRoundTrip pins the node-checkpoint payload codec.
func TestNodeCheckpointRoundTrip(t *testing.T) {
	seq, ckpt, pend := uint64(12345), []byte("engine-bytes"), []byte("pending-bytes")
	gotSeq, gotCkpt, gotPend, err := DecodeNodeCheckpoint(EncodeNodeCheckpoint(seq, ckpt, pend))
	if err != nil {
		t.Fatal(err)
	}
	if gotSeq != seq || !bytes.Equal(gotCkpt, ckpt) || !bytes.Equal(gotPend, pend) {
		t.Errorf("round trip: seq=%d ckpt=%q pend=%q", gotSeq, gotCkpt, gotPend)
	}
	if _, _, _, err := DecodeNodeCheckpoint([]byte{1, 2, 3}); err == nil {
		t.Error("truncated payload decoded")
	}
}

// TestServerDedupesReplayedSequences is the receiver half of crash
// replay: a sequenced frame at or below the high-water mark is counted
// Received and Shed (the conservation law still balances) but never
// reaches the engine, so a router replaying its journal after a node
// crash cannot double-count a packet the node's state already covers.
func TestServerDedupesReplayedSequences(t *testing.T) {
	engine := newTestEngine(t, 2)
	l := listenLocal(t)
	s := startServer(t, Config{
		Engine:    engine,
		Listeners: []net.Listener{l},
		Workers:   2,
	})

	trace := testTrace(t, 6, 53)
	cl, err := NewClient(ClientConfig{
		Dial: func() (net.Conn, error) { return net.Dial("tcp", l.Addr().String()) },
	})
	if err != nil {
		t.Fatal(err)
	}

	send := func(i int, seq uint64) {
		t.Helper()
		if err := cl.SendSeq(&trace.Packets[i], seq); err != nil {
			t.Fatalf("send %d seq %d: %v", i, seq, err)
		}
	}
	send(0, 1)
	send(1, 2)
	send(2, 3)
	// Replay of 2 and 3 — identical frames, as the router journal resends.
	send(1, 2)
	send(2, 3)
	// Fresh traffic after the replay continues the stream.
	send(3, 4)
	// A version-1 frame bypasses dedup entirely.
	if err := cl.Send(&trace.Packets[4]); err != nil {
		t.Fatal(err)
	}
	cl.Close()

	// Wait on the law's right-hand side: Received is posted first, so a
	// snapshot taken the moment it reaches 7 can still be mid-admission.
	waitFor(t, 5*time.Second, "frames to be accounted", func() bool {
		return accounted(s.Stats()) == 7
	})
	st := s.Stats()
	assertConservation(t, st)
	if st.Deduped != 2 || st.Shed != 2 {
		t.Errorf("deduped %d, shed %d, want 2/2: %+v", st.Deduped, st.Shed, st)
	}
	if st.Admitted != 5 {
		t.Errorf("admitted %d, want 5 (duplicates must not reach the engine)", st.Admitted)
	}
	if st.SeenSeq != 4 {
		t.Errorf("seen_seq %d, want 4", st.SeenSeq)
	}
	// With no checkpoint hook there is nothing to persist: observation is
	// as durable as it gets, so acked tracks seen.
	if st.AckedSeq != 4 {
		t.Errorf("acked_seq %d, want 4", st.AckedSeq)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestServerResumeSeqPrimesDedup pins the restart half of crash replay: a
// server restored from a node checkpoint primes its watermark from
// ResumeSeq, so replayed frames whose effects the restored state already
// contains are discarded while post-checkpoint frames are reprocessed.
func TestServerResumeSeqPrimesDedup(t *testing.T) {
	engine := newTestEngine(t, 2)
	l := listenLocal(t)
	s := startServer(t, Config{
		Engine:    engine,
		Listeners: []net.Listener{l},
		Workers:   2,
		ResumeSeq: 10,
	})
	if st := s.Stats(); st.SeenSeq != 10 {
		t.Fatalf("fresh server seen_seq %d, want primed 10", st.SeenSeq)
	}

	trace := testTrace(t, 4, 54)
	cl, err := NewClient(ClientConfig{
		Dial: func() (net.Conn, error) { return net.Dial("tcp", l.Addr().String()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, seq := range []uint64{9, 10, 11, 12} {
		if err := cl.SendSeq(&trace.Packets[i], seq); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()
	waitFor(t, 5*time.Second, "frames to be accounted", func() bool {
		return accounted(s.Stats()) == 4
	})
	st := s.Stats()
	assertConservation(t, st)
	if st.Deduped != 2 || st.Admitted != 2 || st.SeenSeq != 12 {
		t.Errorf("deduped=%d admitted=%d seen=%d, want 2/2/12: %+v",
			st.Deduped, st.Admitted, st.SeenSeq, st)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointNowAdvancesAck pins the quiesced checkpoint path: the
// payload captures a consistent watermark and the acked_seq the STATUS
// line reports advances only after the hook succeeds.
func TestCheckpointNowAdvancesAck(t *testing.T) {
	engine := newTestEngine(t, 2)
	l := listenLocal(t)
	var saved []byte
	hookErr := fmt.Errorf("disk full")
	s := startServer(t, Config{
		Engine:    engine,
		Listeners: []net.Listener{l},
		Workers:   2,
		NodeCheckpoint: func(payload []byte) error {
			if hookErr != nil {
				return hookErr
			}
			saved = append([]byte(nil), payload...)
			return nil
		},
	})

	trace := testTrace(t, 4, 55)
	cl, err := NewClient(ClientConfig{
		Dial: func() (net.Conn, error) { return net.Dial("tcp", l.Addr().String()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := cl.SendSeq(&trace.Packets[i], uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()
	waitFor(t, 5*time.Second, "frames to arrive", func() bool {
		return s.Stats().Received == 4
	})

	if err := s.CheckpointNow(); err == nil {
		t.Error("failing hook reported success")
	}
	if st := s.Stats(); st.AckedSeq != 0 {
		t.Errorf("acked_seq %d advanced past a failed checkpoint", st.AckedSeq)
	}

	hookErr = nil
	if err := s.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.AckedSeq != 4 {
		t.Errorf("acked_seq %d, want 4 after a successful checkpoint", st.AckedSeq)
	}
	seq, _, _, err := DecodeNodeCheckpoint(saved)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 4 {
		t.Errorf("checkpoint watermark %d, want 4", seq)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestStatusConnExportImport drives the migration verbs end to end over
// the status listener: every flow EXPORTed from one live server lands in
// another via IMPORT, classified state intact and readable on exactly one
// side.
func TestStatusConnExportImport(t *testing.T) {
	engA, engB := newTestEngine(t, 2), newTestEngine(t, 1)
	lA, stA := listenLocal(t), listenLocal(t)
	lB, stB := listenLocal(t), listenLocal(t)
	a := startServer(t, Config{
		Engine: engA, Listeners: []net.Listener{lA}, StatusListener: stA, Workers: 2,
	})
	b := startServer(t, Config{
		Engine: engB, Listeners: []net.Listener{lB}, StatusListener: stB, Workers: 2,
	})

	trace := testTrace(t, 20, 56)
	cl, err := NewClient(ClientConfig{
		Dial: func() (net.Conn, error) { return net.Dial("tcp", lA.Addr().String()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range trace.Packets {
		if err := cl.Send(&trace.Packets[i]); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()
	waitFor(t, 5*time.Second, "frames to arrive", func() bool {
		return a.Stats().Received == len(trace.Packets)
	})
	waitFor(t, 5*time.Second, "packets processed", func() bool {
		es := engA.Stats()
		return es.Admitted > 0 && a.Stats().Admitted == len(trace.Packets)
	})

	// EXPORT the full hash space: every pending flow and CDB record moves.
	c, err := net.Dial("tcp", stA.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(c, "EXPORT 0-%x\n", ^uint64(0))
	var n int
	if _, err := fmt.Fscanf(c, "BLOB %d\n", &n); err != nil {
		t.Fatalf("EXPORT reply: %v", err)
	}
	frame := make([]byte, n)
	if _, err := readFull(c, frame); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := persist.DecodeKind(frame, persist.KindMigration); err != nil {
		t.Fatalf("EXPORT frame: %v", err)
	}

	c, err = net.Dial("tcp", stB.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(c, "IMPORT %d\n", len(frame))
	if _, err := c.Write(frame); err != nil {
		t.Fatal(err)
	}
	var k int
	if _, err := fmt.Fscanf(c, "OK imported=%d\n", &k); err != nil {
		t.Fatalf("IMPORT reply: %v", err)
	}
	c.Close()
	if k == 0 {
		t.Fatal("IMPORT landed zero flows")
	}

	// Each classified flow's verdict is now readable on B and only B; the
	// per-engine law Admitted == Classified+Fallback+Dropped+Pending holds
	// on both sides of the move.
	moved := 0
	for tuple := range trace.Flows {
		if _, ok := engA.RecordedLabel(tuple); ok {
			t.Errorf("flow %v still readable on the exporting node", tuple)
		}
		if _, ok := engB.RecordedLabel(tuple); ok {
			moved++
		}
	}
	if moved == 0 {
		t.Error("no migrated verdict readable on the importing node")
	}
	for name, es := range map[string]flow.EngineStats{"a": engA.Stats(), "b": engB.Stats()} {
		if es.Admitted != es.Classified+es.Fallback+es.Dropped+es.Pending {
			t.Errorf("engine %s law violated after migration: %+v", name, es)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := b.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// readFull reads exactly len(buf) bytes from c.
func readFull(c net.Conn, buf []byte) (int, error) {
	total := 0
	for total < len(buf) {
		n, err := c.Read(buf[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
