package flow

import (
	"errors"
	"testing"
	"time"

	"iustitia/internal/corpus"
	"iustitia/internal/packet"
)

func TestEnginePendingCapEvictOldest(t *testing.T) {
	e := newTestEngine(t, EngineConfig{BufferSize: 8, MaxPending: 2, Eviction: EvictOldest})
	// Three half-filled flows; admitting the third must evict flow 1 (the
	// least recently active) without classifying it.
	for i, port := range []uint16{1, 2, 3} {
		if _, err := e.Process(dataPacket(tuple(port, packet.TCP), time.Duration(i)*time.Millisecond, "TTTT")); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if s.Pending != 2 {
		t.Errorf("Pending = %d, want 2", s.Pending)
	}
	if s.Evicted != 1 || s.Dropped != 1 {
		t.Errorf("Evicted/Dropped = %d/%d, want 1/1", s.Evicted, s.Dropped)
	}
	if s.Classified != 0 {
		t.Errorf("Classified = %d, want 0", s.Classified)
	}
	// The evicted flow can complete a fresh buffer later.
	if v, err := e.Process(dataPacket(tuple(1, packet.TCP), time.Second, "TTTTTTTT")); err != nil || !v.Classified {
		t.Errorf("re-admitted flow: verdict %+v, err %v", v, err)
	}
}

func TestEnginePendingCapRecencyNotInsertionOrder(t *testing.T) {
	e := newTestEngine(t, EngineConfig{BufferSize: 8, MaxPending: 2, Eviction: EvictOldest})
	// Flow 1 admitted first but touched again after flow 2, so flow 2 is
	// the eviction victim when flow 3 arrives.
	if _, err := e.Process(dataPacket(tuple(1, packet.TCP), 0, "TT")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Process(dataPacket(tuple(2, packet.TCP), 1*time.Millisecond, "TT")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Process(dataPacket(tuple(1, packet.TCP), 2*time.Millisecond, "TT")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Process(dataPacket(tuple(3, packet.TCP), 3*time.Millisecond, "TT")); err != nil {
		t.Fatal(err)
	}
	// Flow 1 must still be pending: two more bytes after its four fill the
	// 8-byte buffer.
	if v, err := e.Process(dataPacket(tuple(1, packet.TCP), 4*time.Millisecond, "TTTT")); err != nil || !v.Classified {
		t.Errorf("flow 1 was evicted (verdict %+v, err %v); want flow 2 evicted", v, err)
	}
}

func TestEnginePendingCapClassifyPartial(t *testing.T) {
	e := newTestEngine(t, EngineConfig{BufferSize: 8, MaxPending: 1, Eviction: EvictClassifyPartial})
	if _, err := e.Process(dataPacket(tuple(1, packet.TCP), 0, "EEEE")); err != nil {
		t.Fatal(err)
	}
	// Admitting flow 2 classifies flow 1 on its 4-byte partial buffer.
	if _, err := e.Process(dataPacket(tuple(2, packet.TCP), time.Millisecond, "TT")); err != nil {
		t.Fatal(err)
	}
	if label, ok := e.Label(tuple(1, packet.TCP)); !ok || label != corpus.Encrypted {
		t.Errorf("evicted flow label = (%v, %v), want (encrypted, true)", label, ok)
	}
	s := e.Stats()
	if s.Evicted != 1 || s.Classified != 1 || s.Dropped != 0 {
		t.Errorf("Evicted/Classified/Dropped = %d/%d/%d, want 1/1/0", s.Evicted, s.Classified, s.Dropped)
	}
}

func TestEnginePendingCapShed(t *testing.T) {
	e := newTestEngine(t, EngineConfig{
		BufferSize: 8, MaxPending: 1, Eviction: EvictShed, FallbackClass: corpus.Binary,
	})
	if _, err := e.Process(dataPacket(tuple(1, packet.TCP), 0, "TTTT")); err != nil {
		t.Fatal(err)
	}
	v, err := e.Process(dataPacket(tuple(2, packet.TCP), time.Millisecond, "EEEE"))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Routed || !v.Fallback || v.Queue != corpus.Binary {
		t.Errorf("shed verdict = %+v, want fallback binary routing", v)
	}
	// Later packets of the shed flow answer from the CDB, not the table.
	v, err = e.Process(dataPacket(tuple(2, packet.TCP), 2*time.Millisecond, "EEEE"))
	if err != nil {
		t.Fatal(err)
	}
	if !v.FromCDB || v.Queue != corpus.Binary {
		t.Errorf("post-shed verdict = %+v, want CDB binary hit", v)
	}
	s := e.Stats()
	if s.Shed != 1 || s.Pending != 1 || s.Admitted != 1 {
		t.Errorf("Shed/Pending/Admitted = %d/%d/%d, want 1/1/1", s.Shed, s.Pending, s.Admitted)
	}
	if label, ok := e.Label(tuple(2, packet.TCP)); !ok || label != corpus.Binary {
		t.Errorf("shed flow label = (%v, %v), want (binary, true)", label, ok)
	}
}

// flakyClassifier fails while failing() is true, else defers to
// firstByteClassifier; it counts calls.
type flakyClassifier struct {
	failing bool
	calls   int
}

func (f *flakyClassifier) Classify(p []byte) (corpus.Class, error) {
	f.calls++
	if f.failing {
		return 0, errors.New("flaky down")
	}
	return firstByteClassifier().Classify(p)
}

func TestEngineStrictFailureRetiresFlow(t *testing.T) {
	// Without Tolerate: the error propagates, but the flow must not stay
	// pending and re-run the classifier on every later packet.
	clf := &flakyClassifier{failing: true}
	e := newTestEngine(t, EngineConfig{BufferSize: 2, Classifier: clf})
	if _, err := e.Process(dataPacket(tuple(1, packet.TCP), 0, "TT")); err == nil {
		t.Fatal("want classification error")
	}
	s := e.Stats()
	if s.Pending != 0 {
		t.Errorf("failed flow still pending (%d)", s.Pending)
	}
	if s.Failed != 1 || s.Dropped != 1 {
		t.Errorf("Failed/Dropped = %d/%d, want 1/1", s.Failed, s.Dropped)
	}
	// A later packet re-buffers from scratch; the classifier only runs
	// again when a fresh buffer fills — one call per fill, not per packet.
	if _, err := e.Process(dataPacket(tuple(1, packet.TCP), time.Millisecond, "T")); err != nil {
		t.Fatal(err)
	}
	if clf.calls != 1 {
		t.Errorf("classifier ran %d times, want 1 (no per-packet retry)", clf.calls)
	}
}

func TestEngineFallbackOnFailure(t *testing.T) {
	clf := &flakyClassifier{failing: true}
	e := newTestEngine(t, EngineConfig{
		BufferSize: 2, Classifier: clf,
		FallbackClass: corpus.Encrypted,
		Faults:        FaultPolicy{Tolerate: true, TripAfter: -1},
	})
	v, err := e.Process(dataPacket(tuple(1, packet.TCP), 0, "TT"))
	if err != nil {
		t.Fatalf("tolerant engine surfaced error: %v", err)
	}
	if !v.Classified || !v.Fallback || v.Queue != corpus.Encrypted {
		t.Errorf("verdict = %+v, want encrypted fallback", v)
	}
	// The flow is settled: later packets hit the CDB, no reclassification.
	if v, err := e.Process(dataPacket(tuple(1, packet.TCP), time.Millisecond, "TT")); err != nil || !v.FromCDB {
		t.Errorf("post-fallback verdict %+v err %v, want CDB hit", v, err)
	}
	if clf.calls != 1 {
		t.Errorf("classifier ran %d times, want 1", clf.calls)
	}
	s := e.Stats()
	if s.Failed != 1 || s.Fallback != 1 || s.Classified != 0 {
		t.Errorf("Failed/Fallback/Classified = %d/%d/%d, want 1/1/0", s.Failed, s.Fallback, s.Classified)
	}
}

func TestEngineDegradedModeTripAndProbeRecovery(t *testing.T) {
	clf := &flakyClassifier{failing: true}
	e := newTestEngine(t, EngineConfig{
		BufferSize: 2, Classifier: clf,
		FallbackClass: corpus.Text,
		Faults:        FaultPolicy{Tolerate: true, TripAfter: 3, ProbeEvery: 2},
	})
	process := func(port uint16, at time.Duration) Verdict {
		t.Helper()
		v, err := e.Process(dataPacket(tuple(port, packet.TCP), at, "EE"))
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// Three consecutive failures trip the breaker.
	for i := uint16(1); i <= 3; i++ {
		process(i, time.Duration(i)*time.Millisecond)
	}
	if !e.Degraded() {
		t.Fatal("engine not degraded after TripAfter failures")
	}
	callsAtTrip := clf.calls
	// Degraded: attempt 1 short-circuits (no call), attempt 2 probes the
	// still-broken classifier (one call), attempt 3 short-circuits again.
	for i := uint16(4); i <= 6; i++ {
		if v := process(i, time.Duration(i)*time.Millisecond); !v.Fallback || v.Queue != corpus.Text {
			t.Errorf("degraded verdict = %+v, want text fallback", v)
		}
	}
	if got := clf.calls - callsAtTrip; got != 1 {
		t.Errorf("degraded engine called classifier %d times in 3 attempts, want 1 probe", got)
	}
	if !e.Degraded() {
		t.Fatal("failed probe must keep the engine degraded")
	}
	// Heal the classifier: flow 7 is the next probe, succeeds, and
	// restores normal classification.
	clf.failing = false
	v := process(7, 7*time.Millisecond)
	if e.Degraded() {
		t.Error("engine still degraded after successful probe")
	}
	if v.Fallback || v.Queue != corpus.Encrypted {
		t.Errorf("probe verdict = %+v, want real encrypted classification", v)
	}
	if v := process(8, 8*time.Millisecond); v.Fallback {
		t.Errorf("post-recovery verdict = %+v, want real classification", v)
	}
	s := e.Stats()
	if s.Degraded != 0 {
		t.Errorf("Stats.Degraded = %d, want 0 after recovery", s.Degraded)
	}
	// 3 trip failures + 1 failed probe = 4 failures; fallbacks: those 4
	// plus the short-circuits at attempts 4 and 6.
	if s.Failed != 4 || s.Fallback != 6 {
		t.Errorf("Failed/Fallback = %d/%d, want 4/6", s.Failed, s.Fallback)
	}
}

func TestEnginePanicRecovered(t *testing.T) {
	panicky := ClassifierFunc(func([]byte) (corpus.Class, error) { panic("kaboom") })

	strict := newTestEngine(t, EngineConfig{BufferSize: 2, Classifier: panicky})
	_, err := strict.Process(dataPacket(tuple(1, packet.TCP), 0, "TT"))
	if err == nil {
		t.Fatal("strict engine: want error from recovered panic")
	}
	if s := strict.Stats(); s.Failed != 1 || s.Pending != 0 {
		t.Errorf("Failed/Pending = %d/%d, want 1/0", s.Failed, s.Pending)
	}

	tolerant := newTestEngine(t, EngineConfig{
		BufferSize: 2, Classifier: panicky,
		FallbackClass: corpus.Binary,
		Faults:        FaultPolicy{Tolerate: true},
	})
	v, err := tolerant.Process(dataPacket(tuple(1, packet.TCP), 0, "TT"))
	if err != nil {
		t.Fatalf("tolerant engine surfaced panic as error: %v", err)
	}
	if !v.Fallback || v.Queue != corpus.Binary {
		t.Errorf("verdict = %+v, want binary fallback", v)
	}
}

func TestEngineRejectsOutOfRangeClass(t *testing.T) {
	bogus := ClassifierFunc(func([]byte) (corpus.Class, error) { return corpus.Class(99), nil })
	e := newTestEngine(t, EngineConfig{
		BufferSize: 2, Classifier: bogus,
		FallbackClass: corpus.Text,
		Faults:        FaultPolicy{Tolerate: true},
	})
	v, err := e.Process(dataPacket(tuple(1, packet.TCP), 0, "TT"))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Fallback || v.Queue != corpus.Text {
		t.Errorf("verdict = %+v, want fallback for out-of-range class", v)
	}
}

func TestFlushContinuesPastFailures(t *testing.T) {
	// Classifier fails on payloads starting 'X'; three due flows, one
	// poisoned. The pass must classify the other two, retire all three,
	// and report the failure in a joined error.
	clf := ClassifierFunc(func(p []byte) (corpus.Class, error) {
		if p[0] == 'X' {
			return 0, errors.New("poisoned")
		}
		return firstByteClassifier().Classify(p)
	})
	e := newTestEngine(t, EngineConfig{BufferSize: 1024, Classifier: clf})
	for port, payload := range map[uint16]string{1: "TT", 2: "XX", 3: "EE"} {
		if _, err := e.Process(dataPacket(tuple(port, packet.UDP), 0, payload)); err != nil {
			t.Fatal(err)
		}
	}
	n, err := e.FlushAll(time.Second)
	if err == nil {
		t.Fatal("want aggregated error from poisoned flow")
	}
	if n != 2 {
		t.Errorf("flushed %d flows, want 2 despite the failure", n)
	}
	s := e.Stats()
	if s.Pending != 0 {
		t.Errorf("Pending = %d after FlushAll, want 0 (no stuck flows)", s.Pending)
	}
	if s.Failed != 1 || s.Classified != 2 {
		t.Errorf("Failed/Classified = %d/%d, want 1/2", s.Failed, s.Classified)
	}
	if _, ok := e.Label(tuple(1, packet.UDP)); !ok {
		t.Error("healthy flow 1 lost its label to the poisoned flow")
	}
	if _, ok := e.Label(tuple(3, packet.UDP)); !ok {
		t.Error("healthy flow 3 lost its label to the poisoned flow")
	}
}

func TestEngineLabelCapBoundsMap(t *testing.T) {
	e := newTestEngine(t, EngineConfig{BufferSize: 2, LabelCap: 2})
	for i := uint16(1); i <= 5; i++ {
		if _, err := e.Process(dataPacket(tuple(i, packet.TCP), 0, "TT")); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint16(1); i <= 3; i++ {
		if _, ok := e.Label(tuple(i, packet.TCP)); ok {
			t.Errorf("flow %d label survived a cap of 2", i)
		}
	}
	for i := uint16(4); i <= 5; i++ {
		if _, ok := e.Label(tuple(i, packet.TCP)); !ok {
			t.Errorf("recent flow %d lost its label", i)
		}
	}
}

// TestEngineLabelCapDisabled is iustitia-serve's setting: a long-running
// node that reads neither Label nor FillStats keeps no per-flow results,
// however many flows it classifies, while verdicts stay readable from the
// CDB.
func TestEngineLabelCapDisabled(t *testing.T) {
	e := newTestEngine(t, EngineConfig{
		BufferSize: 2,
		LabelCap:   -1,
		CDB:        CDBConfig{PurgeOnClose: true, PurgeInactive: true, N: 4},
	})
	const flows = 500
	for i := uint16(1); i <= flows; i++ {
		if v, err := e.Process(dataPacket(tuple(i, packet.TCP), 0, "TT")); err != nil || !v.Classified {
			t.Fatalf("flow %d: verdict %+v err %v", i, v, err)
		}
	}
	if n := len(e.FillStats()); n != 0 {
		t.Errorf("result tracking disabled but %d FillStats were kept", n)
	}
	if n := len(e.sink.labelled); n != 0 {
		t.Errorf("result tracking disabled but %d labels were kept", n)
	}
	if _, ok := e.Label(tuple(1, packet.TCP)); ok {
		t.Error("label tracking disabled but Label returned a result")
	}
	if label, ok := e.RecordedLabel(tuple(flows, packet.TCP)); !ok || label != corpus.Text {
		t.Errorf("RecordedLabel = (%v, %v), want the CDB's verdict", label, ok)
	}
	// Classification itself is unaffected.
	if got := e.Stats().Classified; got != flows {
		t.Errorf("Classified = %d, want %d", got, flows)
	}
	if v, err := e.Process(dataPacket(tuple(1, packet.TCP), time.Millisecond, "TT")); err != nil || !v.FromCDB {
		t.Errorf("verdict %+v err %v, want CDB hit", v, err)
	}
}

func TestEngineConfigValidation(t *testing.T) {
	base := EngineConfig{BufferSize: 2, Classifier: firstByteClassifier()}
	bad := base
	bad.MaxPending = -1
	if _, err := NewEngine(bad); err == nil {
		t.Error("negative MaxPending: want error")
	}
	bad = base
	bad.Eviction = EvictPolicy(7)
	if _, err := NewEngine(bad); err == nil {
		t.Error("unknown eviction policy: want error")
	}
	bad = base
	bad.FallbackClass = corpus.Class(9)
	if _, err := NewEngine(bad); err == nil {
		t.Error("out-of-range fallback class: want error")
	}
	if _, err := ParseEvictPolicy("bogus"); err == nil {
		t.Error("ParseEvictPolicy(bogus): want error")
	}
	for _, p := range []EvictPolicy{EvictOldest, EvictClassifyPartial, EvictShed} {
		got, err := ParseEvictPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParseEvictPolicy(%q) = (%v, %v)", p.String(), got, err)
		}
	}
}

func TestCDBMaxRecordsPressure(t *testing.T) {
	cdb := NewCDB(CDBConfig{MaxRecords: 64})
	for i := 0; i < 1000; i++ {
		cdb.Insert(IDOf(tuple(uint16(i), packet.TCP)), corpus.Text, time.Duration(i)*time.Millisecond)
		if got := cdb.Size(); got > 64 {
			t.Fatalf("insert %d: size %d exceeds MaxRecords 64", i, got)
		}
	}
	s := cdb.Stats()
	if s.RemovedByPressure == 0 {
		t.Error("RemovedByPressure = 0, want evictions")
	}
	// The most recent record must have survived (oldest-first eviction).
	if _, ok := cdb.Lookup(IDOf(tuple(999, packet.TCP)), time.Second); !ok {
		t.Error("newest record evicted under pressure")
	}
}
