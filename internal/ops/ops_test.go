package ops

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"iustitia/internal/core"
	"iustitia/internal/corpus"
	"iustitia/internal/flow"
	"iustitia/internal/ingest"
	"iustitia/internal/ml/cart"
	"iustitia/internal/packet"
	"iustitia/internal/persist"
)

// trainClassifier trains a small CART model over widths {1,2} at b=8.
func trainClassifier(t *testing.T, seed int64) *core.Classifier {
	t.Helper()
	pool, err := corpus.NewGenerator(seed).Pool(12, 256, 1024)
	if err != nil {
		t.Fatal(err)
	}
	clf, err := core.Train(pool, core.TrainConfig{
		Kind: core.KindCART,
		Dataset: core.DatasetConfig{
			Widths:     []int{1, 2},
			Method:     core.MethodPrefix,
			BufferSize: 8,
			Seed:       seed,
		},
		CART: cart.Config{MinLeaf: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return clf
}

// newOpsEngine builds an engine serving clf with a hair-trigger breaker
// (two consecutive failures degrade a shard) and probes effectively
// disabled, so a degraded shard stays visibly degraded for the test.
func newOpsEngine(t *testing.T, clf *core.Classifier, shards int) *flow.ParallelEngine {
	t.Helper()
	pe, err := flow.NewParallelEngine(flow.EngineConfig{
		BufferSize: 8,
		Classifier: clf,
		Faults:     flow.FaultPolicy{Tolerate: true, TripAfter: 2, ProbeEvery: 1 << 20},
	}, shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pe
}

func newTestManager(t *testing.T, clf *core.Classifier, eng *flow.ParallelEngine) *Manager {
	t.Helper()
	m, err := NewManager(Config{
		Engine:          eng,
		Classifier:      clf,
		Classes:         corpus.NumClasses,
		BufferSize:      8,
		ProbationWindow: 300 * time.Millisecond,
		ProbationPoll:   2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func jsonModel(t *testing.T, clf *core.Classifier) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func snapshotModel(t *testing.T, clf *core.Classifier) []byte {
	t.Helper()
	payload, err := clf.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	return persist.Encode(persist.KindClassifier, payload)
}

// tripModelJSON hand-crafts a CART model that behaves on low-entropy
// payloads but emits class 99 — out of range, a breaker-tripping fault —
// once the width-1 entropy exceeds 0.3. It is the "passes shadow on text
// replay, detonates on live encrypted traffic" candidate.
func tripModelJSON(t *testing.T, classes int) []byte {
	t.Helper()
	tree := &cart.Tree{
		Classes: classes,
		Width:   1,
		Root: &cart.Node{
			Feature:   0,
			Threshold: 0.3,
			Left:      &cart.Node{Label: int(corpus.Text)},
			Right:     &cart.Node{Label: 99},
		},
	}
	blob, err := json.Marshal(struct {
		Kind   core.ModelKind `json:"kind"`
		Widths []int          `json:"widths"`
		Tree   *cart.Tree     `json:"tree"`
	}{core.KindCART, []int{1}, tree})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func opsTuple(n uint16) packet.FiveTuple {
	return packet.FiveTuple{
		SrcIP: [4]byte{10, 0, 0, 9}, DstIP: [4]byte{192, 168, 0, 9},
		SrcPort: n, DstPort: 443, Transport: packet.TCP,
	}
}

// feedFlows pushes one full-buffer packet per flow so each classifies
// immediately (and, in buffered mode, lands in the shadow-sample ring).
func feedFlows(t *testing.T, eng *flow.ParallelEngine, base uint16, n int, payload []byte) {
	t.Helper()
	for i := 0; i < n; i++ {
		p := &packet.Packet{
			Tuple:   opsTuple(base + uint16(i)),
			Time:    time.Duration(i) * time.Millisecond,
			Flags:   packet.FlagACK,
			Payload: payload,
		}
		if _, err := eng.Process(p); err != nil {
			t.Fatalf("Process: %v", err)
		}
	}
}

// lowEntropy fills the 8-byte buffer with one repeated byte (h1 = 0);
// highEntropy with 8 distinct bytes (h1 ≈ 0.375 > the trip threshold).
var (
	lowEntropy  = bytes.Repeat([]byte{'a'}, 8)
	highEntropy = []byte{0x01, 0x53, 0x9b, 0xe7, 0x2c, 0x78, 0xc4, 0x3f}
)

// waitSwapIdle waits out an in-flight probation window.
func waitSwapIdle(t *testing.T, m *Manager) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if !m.NodeMetrics().Swap.InProgress {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("swap never left probation")
}

func TestSwapModelAcceptsJSONAndSnapshot(t *testing.T) {
	live := trainClassifier(t, 1)
	eng := newOpsEngine(t, live, 2)
	m := newTestManager(t, live, eng)
	defer m.Close()

	res, err := m.SwapModel(jsonModel(t, trainClassifier(t, 2)))
	if err != nil {
		t.Fatalf("JSON swap: %v", err)
	}
	if res.Kind != "cart" || res.ShadowSamples == 0 {
		t.Errorf("SwapResult = %+v, want cart kind and shadow samples", res)
	}
	waitSwapIdle(t, m)

	if _, err := m.SwapModel(snapshotModel(t, trainClassifier(t, 3))); err != nil {
		t.Fatalf("snapshot swap: %v", err)
	}
	waitSwapIdle(t, m)

	sm := m.NodeMetrics().Swap
	if sm.Swaps != 2 || sm.Rejected != 0 || sm.Rollbacks != 0 {
		t.Errorf("swap metrics = %+v, want 2 swaps, 0 rejected, 0 rollbacks", sm)
	}
}

func TestSwapModelRejectsGarbage(t *testing.T) {
	live := trainClassifier(t, 1)
	eng := newOpsEngine(t, live, 1)
	m := newTestManager(t, live, eng)
	defer m.Close()

	if _, err := m.SwapModel([]byte("not a model")); err == nil {
		t.Fatal("garbage blob accepted")
	}
	if sm := m.NodeMetrics().Swap; sm.Rejected != 1 || sm.Swaps != 0 {
		t.Errorf("swap metrics = %+v, want 1 rejected, 0 swaps", sm)
	}
	// The live model must be untouched.
	if _, err := live.Classify(highEntropy); err != nil {
		t.Errorf("live model broken after rejected swap: %v", err)
	}
}

func TestSwapModelRejectsMetadataMismatch(t *testing.T) {
	live := trainClassifier(t, 1)

	t.Run("class count", func(t *testing.T) {
		eng := newOpsEngine(t, live, 1)
		m := newTestManager(t, live, eng)
		defer m.Close()
		_, err := m.SwapModel(tripModelJSON(t, 2)) // 2-class model vs 3-class deployment
		if err == nil || !strings.Contains(err.Error(), "classes") {
			t.Fatalf("err = %v, want class-count rejection", err)
		}
	})

	t.Run("width over buffer", func(t *testing.T) {
		eng := newOpsEngine(t, live, 1)
		m := newTestManager(t, live, eng)
		defer m.Close()
		// A model wanting 16-byte grams can never see a full vector from
		// an 8-byte buffer.
		pool, err := corpus.NewGenerator(7).Pool(8, 256, 1024)
		if err != nil {
			t.Fatal(err)
		}
		wide, err := core.Train(pool, core.TrainConfig{
			Kind: core.KindCART,
			Dataset: core.DatasetConfig{
				Widths:     []int{1, 16},
				Method:     core.MethodPrefix,
				BufferSize: 32,
				Seed:       7,
			},
			CART: cart.Config{MinLeaf: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = m.SwapModel(jsonModel(t, wide))
		if err == nil || !strings.Contains(err.Error(), "buffer") {
			t.Fatalf("err = %v, want width rejection", err)
		}
	})

	t.Run("stream widths pinned", func(t *testing.T) {
		eng := newOpsEngine(t, live, 1)
		mgr, err := NewManager(Config{
			Engine: eng, Classifier: live, Classes: corpus.NumClasses,
			BufferSize: 8, Stream: true,
			ProbationWindow: 50 * time.Millisecond, ProbationPoll: 2 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer mgr.Close()
		// live widths are {1,2}; the trip model wants {1}.
		_, err = mgr.SwapModel(tripModelJSON(t, corpus.NumClasses))
		if err == nil || !strings.Contains(err.Error(), "widths") {
			t.Fatalf("err = %v, want stream width rejection", err)
		}
	})
}

func TestSwapModelShadowCatchesFaultyCandidate(t *testing.T) {
	live := trainClassifier(t, 1)
	eng := newOpsEngine(t, live, 1)
	m := newTestManager(t, live, eng)
	defer m.Close()

	// No traffic yet: shadow uses the synthetic textures, whose encrypted
	// sample drives the trip model's out-of-range branch.
	_, err := m.SwapModel(tripModelJSON(t, corpus.NumClasses))
	if err == nil || !strings.Contains(err.Error(), "shadow") {
		t.Fatalf("err = %v, want shadow rejection", err)
	}
	if sm := m.NodeMetrics().Swap; sm.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", sm.Rejected)
	}
}

func TestSwapModelProbationRollback(t *testing.T) {
	live := trainClassifier(t, 1)
	eng := newOpsEngine(t, live, 1)
	m, err := NewManager(Config{
		Engine: eng, Classifier: live, Classes: corpus.NumClasses, BufferSize: 8,
		ProbationWindow: 2 * time.Second, ProbationPoll: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Fill the shadow-sample ring with low-entropy traffic only, so the
	// trip model survives shadow classification...
	feedFlows(t, eng, 100, 4, lowEntropy)
	if _, err := m.SwapModel(tripModelJSON(t, corpus.NumClasses)); err != nil {
		t.Fatalf("trip model should pass a text-only shadow: %v", err)
	}

	// ...then detonates on live encrypted traffic: two consecutive
	// out-of-range classes trip the breaker, probation sees the degraded
	// shard and restores the previous model.
	feedFlows(t, eng, 200, 3, highEntropy)
	deadline := time.Now().Add(4 * time.Second)
	for m.NodeMetrics().Swap.Rollbacks == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no rollback; metrics = %+v, engine degraded = %d",
				m.NodeMetrics().Swap, eng.Stats().Degraded)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The previous model is serving again.
	if cls, err := live.Classify(highEntropy); err != nil || cls < 0 || int(cls) >= corpus.NumClasses {
		t.Errorf("after rollback Classify = (%v, %v), want a valid class", cls, err)
	}
	sm := m.NodeMetrics().Swap
	if sm.Swaps != 1 || sm.Rollbacks != 1 || sm.InProgress {
		t.Errorf("swap metrics = %+v, want 1 swap, 1 rollback, idle", sm)
	}
}

// TestShadowTestAgainstChurningEngine swaps models, probation and all,
// while flows keep retiring through the engine: the shadow test classifies
// the sample ring's buffers at the same time as recycled flow records
// refill theirs. Under -race this fails if SampleBuffers ever hands out a
// buffer the engine still owns.
func TestShadowTestAgainstChurningEngine(t *testing.T) {
	live := trainClassifier(t, 1)
	eng := newOpsEngine(t, live, 2)
	m, err := NewManager(Config{
		Engine: eng, Classifier: live, Classes: corpus.NumClasses, BufferSize: 8,
		ProbationWindow: 5 * time.Millisecond, ProbationPoll: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		payload := make([]byte, 8)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for j := range payload {
				payload[j] = byte(i + j*(i%5))
			}
			tp := opsTuple(uint16(i))
			tp.DstPort = uint16(i >> 16) // a fresh flow every time, 2^32 of them
			p := &packet.Packet{Tuple: tp, Time: time.Duration(i) * time.Millisecond, Flags: packet.FlagACK, Payload: payload}
			if _, err := eng.Process(p); err != nil {
				t.Errorf("Process: %v", err)
				return
			}
		}
	}()
	candidates := [][]byte{jsonModel(t, trainClassifier(t, 2)), jsonModel(t, trainClassifier(t, 3))}
	for i := 0; i < 12; i++ {
		res, err := m.SwapModel(candidates[i%2])
		if err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
		if res.ShadowSamples == 0 {
			t.Errorf("swap %d shadow-tested nothing", i)
		}
		waitSwapIdle(t, m)
	}
	close(stop)
	<-done
	if sm := m.NodeMetrics().Swap; sm.Swaps != 12 || sm.Rollbacks != 0 {
		t.Errorf("swap metrics = %+v, want 12 clean swaps", sm)
	}
}

func TestSwapModelBusy(t *testing.T) {
	live := trainClassifier(t, 1)
	eng := newOpsEngine(t, live, 1)
	m := newTestManager(t, live, eng)
	defer m.Close()

	if _, err := m.SwapModel(jsonModel(t, trainClassifier(t, 2))); err != nil {
		t.Fatal(err)
	}
	// The first swap is in probation; a second must be refused.
	if _, err := m.SwapModel(jsonModel(t, trainClassifier(t, 3))); !errors.Is(err, ErrSwapBusy) {
		t.Fatalf("err = %v, want ErrSwapBusy", err)
	}
	waitSwapIdle(t, m)
	if sm := m.NodeMetrics().Swap; sm.Swaps != 1 || sm.Rejected != 1 {
		t.Errorf("swap metrics = %+v, want 1 swap, 1 rejected", sm)
	}
}

func TestParseSettings(t *testing.T) {
	st, err := ParseSettings([]string{"overflow=shed", "batch=8", "max_pending=16", "evict=partial", "idle_flush=250ms"})
	if err != nil {
		t.Fatal(err)
	}
	if *st.Overflow != ingest.OverflowShed || *st.Batch != 8 || *st.MaxPending != 16 ||
		*st.Evict != flow.EvictClassifyPartial || *st.IdleFlush != 250*time.Millisecond {
		t.Errorf("parsed settings = %+v", st)
	}
	if got := st.Keys(); strings.Join(got, ",") != "overflow,batch,max_pending,evict,idle_flush" {
		t.Errorf("Keys = %v", got)
	}

	for _, bad := range [][]string{
		{"overflow"},          // no value
		{"overflow=banana"},   // unknown policy
		{"batch=0"},           // not positive
		{"max_pending=-1"},    // negative
		{"evict=newest"},      // unknown policy
		{"idle_flush=-1s"},    // negative duration
		{"turbo=on"},          // unknown key
	} {
		if _, err := ParseSettings(bad); err == nil {
			t.Errorf("ParseSettings(%v) accepted", bad)
		}
	}
}

func TestParseConfigFile(t *testing.T) {
	st, err := ParseConfigFile([]byte("# ops config\n\noverflow = shed\nidle_flush = 1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Overflow == nil || *st.Overflow != ingest.OverflowShed ||
		st.IdleFlush == nil || *st.IdleFlush != time.Second {
		t.Errorf("parsed config = %+v", st)
	}
	if _, err := ParseConfigFile([]byte("overflow=shed\nbogus=1\n")); err == nil ||
		!strings.Contains(err.Error(), "line 2") {
		t.Errorf("err = %v, want line-numbered unknown-key error", err)
	}
}

// startOpsServer wires a full manager + ingest server pair with a status
// listener, the way serve main does.
func startOpsServer(t *testing.T, m *Manager, eng *flow.ParallelEngine, drain func()) (srv *ingest.Server, statusAddr string) {
	t.Helper()
	dataLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	statusLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m.cfg.Drain = drain
	srv, err = ingest.NewServer(ingest.Config{
		Engine:         eng,
		Listeners:      []net.Listener{dataLn},
		StatusListener: statusLn,
		NodeName:       "ops-node",
		AdminHandler:   m.HandleAdmin,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	m.AttachServer(srv)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, statusLn.Addr().String()
}

// adminRoundTrip sends one verb line and returns the full reply.
func adminRoundTrip(t *testing.T, addr, line string) string {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := fmt.Fprintf(c, "%s\n", line); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(c); err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(buf.String())
}

func TestAdminVerbsOverStatusListener(t *testing.T) {
	live := trainClassifier(t, 1)
	eng := newOpsEngine(t, live, 2)
	m := newTestManager(t, live, eng)
	defer m.Close()
	drained := make(chan struct{}, 1)
	_, addr := startOpsServer(t, m, eng, func() { drained <- struct{}{} })

	if got := adminRoundTrip(t, addr, "OPS"); !strings.HasPrefix(got, "OK v1 verbs=") {
		t.Errorf("OPS reply = %q", got)
	}
	if got := adminRoundTrip(t, addr, "SET overflow=shed max_pending=4 evict=shed"); got != "OK v1 applied=overflow,max_pending,evict" {
		t.Errorf("SET reply = %q", got)
	}
	if got := adminRoundTrip(t, addr, "SET turbo=on"); !strings.HasPrefix(got, "ERR") {
		t.Errorf("bad SET reply = %q", got)
	}
	if got := adminRoundTrip(t, addr, "RELOAD"); !strings.HasPrefix(got, "ERR") {
		t.Errorf("RELOAD with no config file = %q", got)
	}
	// The EXPORT/IMPORT/STATUS verbs must still be served around the admin
	// hook; an unknown verb still errors.
	if got := adminRoundTrip(t, addr, "FROBNICATE"); !strings.HasPrefix(got, "ERR unknown command") {
		t.Errorf("unknown verb reply = %q", got)
	}

	nm, err := ProbeMetrics(addr, 5*time.Second)
	if err != nil {
		t.Fatalf("ProbeMetrics: %v", err)
	}
	if nm.Version != Version || nm.Node != "ops-node" || nm.Settings.Overflow != "shed" {
		t.Errorf("metrics = version %d node %q overflow %q", nm.Version, nm.Node, nm.Settings.Overflow)
	}
	if nm.Swap.ModelKind != "cart" || len(nm.Verdicts) != corpus.NumClasses {
		t.Errorf("metrics model=%q verdicts=%d", nm.Swap.ModelKind, len(nm.Verdicts))
	}
	if nm.Queue.Capacity == 0 {
		t.Error("metrics queue capacity = 0, want the configured depth")
	}

	if got := adminRoundTrip(t, addr, "DRAIN"); got != "OK v1 draining" {
		t.Errorf("DRAIN reply = %q", got)
	}
	select {
	case <-drained:
	case <-time.After(2 * time.Second):
		t.Error("DRAIN verb never fired the drain hook")
	}
}

func TestReloadConfigFile(t *testing.T) {
	live := trainClassifier(t, 1)
	eng := newOpsEngine(t, live, 1)
	path := filepath.Join(t.TempDir(), "ops.conf")
	if err := os.WriteFile(path, []byte("overflow=disconnect\nidle_flush=42ms\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Config{
		Engine: eng, Classifier: live, Classes: corpus.NumClasses, BufferSize: 8,
		ConfigPath:      path,
		ProbationWindow: 50 * time.Millisecond, ProbationPoll: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	_, addr := startOpsServer(t, m, eng, nil)

	got := adminRoundTrip(t, addr, "RELOAD")
	want := fmt.Sprintf("OK v1 reloaded=%s applied=overflow,idle_flush", path)
	if got != want {
		t.Errorf("RELOAD reply = %q, want %q", got, want)
	}
	nm, err := ProbeMetrics(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if nm.Settings.Overflow != "disconnect" || nm.Swap.Reconfigs != 1 {
		t.Errorf("after RELOAD: overflow=%q reconfigs=%d", nm.Settings.Overflow, nm.Swap.Reconfigs)
	}

	// A malformed file must leave the knobs alone.
	if err := os.WriteFile(path, []byte("overflow=banana\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReloadConfig(); err == nil {
		t.Error("malformed config file applied")
	}
}

func TestNodeMetricsJSONRoundTrip(t *testing.T) {
	live := trainClassifier(t, 1)
	eng := newOpsEngine(t, live, 2)
	m := newTestManager(t, live, eng)
	defer m.Close()
	feedFlows(t, eng, 300, 6, lowEntropy)

	nm := m.NodeMetrics()
	blob, err := json.Marshal(nm)
	if err != nil {
		t.Fatal(err)
	}
	var back NodeMetrics
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Engine.Classified != 6 || len(back.ShardLatency) != 2 {
		t.Errorf("round-tripped metrics: classified=%d shards=%d", back.Engine.Classified, len(back.ShardLatency))
	}
	total := 0
	rate := 0.0
	for _, v := range back.Verdicts {
		total += v.Packets
		rate += v.Rate
	}
	if total != 6 || rate < 0.999 || rate > 1.001 {
		t.Errorf("verdicts: %d packets, rates sum %v", total, rate)
	}
	obs := 0
	for _, sh := range back.ShardLatency {
		obs += sh.Total
	}
	if obs != 6 {
		t.Errorf("latency histogram observations = %d, want 6", obs)
	}
}
