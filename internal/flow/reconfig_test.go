package flow

import (
	"testing"
	"time"

	"iustitia/internal/packet"
)

// conservationOK asserts the engine conservation law: every admitted flow
// is classified, fell back, was dropped, or is still pending — and every
// flow the engine ever saw was either admitted or shed.
func conservationOK(t *testing.T, s EngineStats, flowsSeen int) {
	t.Helper()
	if got := s.Classified + s.Fallback + s.Dropped + s.Pending; got != s.Admitted {
		t.Errorf("conservation broken: classified %d + fallback %d + dropped %d + pending %d = %d, admitted %d",
			s.Classified, s.Fallback, s.Dropped, s.Pending, got, s.Admitted)
	}
	if got := s.Admitted + s.Shed; got != flowsSeen {
		t.Errorf("flow count broken: admitted %d + shed %d = %d, saw %d flows",
			s.Admitted, s.Shed, got, flowsSeen)
	}
}

func TestGovernorReconfigMidBurst(t *testing.T) {
	e := newTestEngine(t, EngineConfig{BufferSize: 8, MaxPending: 8, Eviction: EvictOldest})

	// First half of the burst: eight flows admitted, each half filled.
	flows := 0
	now := time.Duration(0)
	for port := uint16(1); port <= 8; port++ {
		now += time.Millisecond
		if _, err := e.Process(dataPacket(tuple(port, packet.TCP), now, "TTTT")); err != nil {
			t.Fatal(err)
		}
		flows++
	}

	// Tighten the governor mid-burst, as a SET/RELOAD would.
	if err := e.SetMaxPending(2); err != nil {
		t.Fatal(err)
	}
	if err := e.SetEviction(EvictShed); err != nil {
		t.Fatal(err)
	}

	// Second half: eight new flows arrive at a table already over the new
	// cap, so each is shed to the fallback queue.
	for port := uint16(101); port <= 108; port++ {
		now += time.Millisecond
		v, err := e.Process(dataPacket(tuple(port, packet.TCP), now, "TTTT"))
		if err != nil {
			t.Fatal(err)
		}
		if !v.Fallback {
			t.Errorf("flow %d admitted over the lowered cap: %+v", port, v)
		}
		flows++
	}

	// A pre-reconfig flow still completes its buffer and classifies —
	// tightening the cap never disturbs flows already admitted.
	now += time.Millisecond
	v, err := e.Process(dataPacket(tuple(1, packet.TCP), now, "TTTT"))
	if err != nil || !v.Classified {
		t.Errorf("pre-reconfig flow: verdict %+v, err %v, want classified", v, err)
	}

	if _, err := e.FlushAll(now + time.Second); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Pending != 0 {
		t.Errorf("Pending = %d after FlushAll, want 0", s.Pending)
	}
	if s.Shed != 8 {
		t.Errorf("Shed = %d, want 8", s.Shed)
	}
	conservationOK(t, s, flows)
}

func TestGovernorReconfigLoosensCap(t *testing.T) {
	e := newTestEngine(t, EngineConfig{BufferSize: 8, MaxPending: 1, Eviction: EvictShed})
	if _, err := e.Process(dataPacket(tuple(1, packet.TCP), 0, "TTTT")); err != nil {
		t.Fatal(err)
	}
	// At cap: the second flow sheds.
	if v, err := e.Process(dataPacket(tuple(2, packet.TCP), time.Millisecond, "TTTT")); err != nil || !v.Fallback {
		t.Fatalf("verdict %+v, err %v, want shed", v, err)
	}
	if err := e.SetMaxPending(4); err != nil {
		t.Fatal(err)
	}
	// Raised cap admits immediately.
	if v, err := e.Process(dataPacket(tuple(3, packet.TCP), 2*time.Millisecond, "TTTT")); err != nil || v.Fallback {
		t.Fatalf("verdict %+v, err %v, want admission under raised cap", v, err)
	}
	s := e.Stats()
	if s.Pending != 2 || s.Shed != 1 {
		t.Errorf("Pending/Shed = %d/%d, want 2/1", s.Pending, s.Shed)
	}
	conservationOK(t, s, 3)
}

func TestSetIdleFlushLive(t *testing.T) {
	e := newTestEngine(t, EngineConfig{BufferSize: 8})
	if _, err := e.Process(dataPacket(tuple(1, packet.TCP), 0, "TTTT")); err != nil {
		t.Fatal(err)
	}
	// Idle flushing starts disabled: nothing flushes no matter how quiet.
	if n, err := e.FlushIdle(time.Hour); err != nil || n != 0 {
		t.Fatalf("FlushIdle disabled: n=%d err=%v", n, err)
	}
	if err := e.SetIdleFlush(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if n, err := e.FlushIdle(time.Hour); err != nil || n != 1 {
		t.Fatalf("FlushIdle enabled live: n=%d err=%v, want 1 flush", n, err)
	}
}

func TestSetterValidation(t *testing.T) {
	e := newTestEngine(t, EngineConfig{BufferSize: 8})
	if err := e.SetMaxPending(-1); err == nil {
		t.Error("negative cap accepted")
	}
	if err := e.SetEviction(EvictPolicy(99)); err == nil {
		t.Error("unknown eviction policy accepted")
	}
	if err := e.SetIdleFlush(-time.Second); err == nil {
		t.Error("negative idle flush accepted")
	}
}

func TestLatencyHistogramAndSampleRing(t *testing.T) {
	e := newTestEngine(t, EngineConfig{BufferSize: 4})
	for port := uint16(1); port <= 2*sampleRingSize; port++ {
		v, err := e.Process(dataPacket(tuple(port, packet.TCP), time.Duration(port)*time.Millisecond, "TTTT"))
		if err != nil || !v.Classified {
			t.Fatalf("flow %d: verdict %+v, err %v", port, v, err)
		}
	}
	h := e.LatencyHistogram()
	if h.Total != 2*sampleRingSize {
		t.Errorf("latency observations = %d, want %d", h.Total, 2*sampleRingSize)
	}
	samples := e.SampleBuffers()
	if len(samples) != sampleRingSize {
		t.Errorf("sample ring holds %d buffers, want %d", len(samples), sampleRingSize)
	}
	for i, s := range samples {
		if len(s) != 4 {
			t.Errorf("sample %d has %d bytes, want the full buffer of 4", i, len(s))
		}
	}
}

// TestSetRacesProcessBatch drives packets on one goroutine while another
// retunes every live knob and exports checkpoints. The packet path reads
// the checkpoint cadence after each data packet; that read must not touch
// the fields the setters write under the engine lock, and a checkpoint
// must read the CDB under the CDB's own lock, which the lock-free hit path
// writes under. Meaningful under -race.
func TestSetRacesProcessBatch(t *testing.T) {
	pe := newBatchEngine(t, 2)
	trace := testTrace(t, 200, 5)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := pe.SetMaxPending(64 + i%64); err != nil {
				t.Error(err)
			}
			if err := pe.SetEviction(EvictPolicy(i % 3)); err != nil {
				t.Error(err)
			}
			if err := pe.SetIdleFlush(time.Duration(i%5) * time.Second); err != nil {
				t.Error(err)
			}
			if len(pe.ExportCheckpoint()) == 0 {
				t.Error("empty checkpoint")
			}
		}
	}()
	replayBatches(t, pe, trace, 16)
	close(stop)
	<-done
	assertConservation(t, pe.Stats())
}
