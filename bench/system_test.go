package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sut.go is the only file allowed to import the system: that is what
// makes it the complete list of surface the benchmark depends on.
func TestOnlySutImportsTheSystem(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f == "sut.go" {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(src), "\n") {
			if trimmed := strings.TrimSpace(line); strings.HasPrefix(trimmed, `"iustitia/`) {
				t.Errorf("%s imports %s: only sut.go may touch the system", f, trimmed)
			}
		}
	}
}

// BENCHMARK.json at the repository root is generated from the tables in
// this directory; the two must not drift, and the contract's limits hold.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	var want bytes.Buffer
	if err := emitBenchmarkJSON(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside this directory: %v", err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want.Bytes())) {
		t.Errorf("BENCHMARK.json differs from `go run . -emit-benchmark-json`")
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(got, &bj); err != nil {
		t.Fatal(err)
	}
	if n := len(bj.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(bj.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(bj.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	names := map[string]bool{}
	for _, group := range [][]map[string]any{bj.Workloads, bj.EndToEnd, bj.PerLayer} {
		for _, m := range group {
			name := m["name"].(string)
			if names[name] || len(name) > 64 {
				t.Errorf("name %q is repeated or too long", name)
			}
			names[name] = true
			if why, ok := m["why"].(string); ok && (len(why) > 200 || strings.Contains(why, "\n")) {
				t.Errorf("why of %s: %d characters", name, len(why))
			}
			if b, ok := m["bound"].(float64); ok && (b < 0 || b > 0.25) {
				t.Errorf("bound of %s is %v", name, b)
			}
		}
	}
	if !names["setup_s"] {
		t.Error("no setup_s metric")
	}
}

// Every workload at 1/100 size: nothing fails, every verdict equals the
// reference replay, and both conservation laws balance on every node
// (received = admitted + quarantined + shed; admitted = classified +
// fallback + dropped + pending).
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			rec, err := runUntraced(w, 5, defaultSeconds, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Failed != 0 || !rec.Correct {
				t.Fatalf("failed=%d correct=%v problems=%v", rec.Failed, rec.Correct, rec.Problems)
			}
			if rec.Extra["failed_share"] != 0 {
				t.Fatalf("failed_share = %v", rec.Extra["failed_share"])
			}
			if rec.NumCPU == 0 || rec.GOMAXPROCS == 0 || rec.GoVersion == "" || rec.Transport != "loopback-tcp" ||
				rec.Seed != 5 || rec.PacedRate == 0 || rec.Packets.Saturate == 0 || rec.Samples["verdict_latency"] == 0 {
				t.Fatalf("record is missing its context: %+v", rec)
			}
			for _, d := range endToEnd {
				if v, ok := rec.Metrics[d.Name]; !ok || v.Unit != d.Unit || v.Value <= 0 {
					t.Errorf("metric %s = %+v", d.Name, v)
				}
			}
		})
	}
}

// A short traced run reports every per-layer metric by name, writes its
// trace file, and keeps cluster counters at zero off the routed workload.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("the isolated layer table alone takes seconds")
	}
	for _, name := range []string{"mice", "mix_routed"} {
		w, _ := workloadByName(name)
		dir := t.TempDir()
		rec, err := runTraced(w, 5, 0.5, dir)
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Correct || rec.Failed != 0 {
			t.Fatalf("%s: failed=%d problems=%v", name, rec.Failed, rec.Problems)
		}
		for _, d := range perLayer {
			if _, ok := rec.Metrics[d.Name]; !ok {
				t.Errorf("%s: metric %s missing", name, d.Name)
			}
		}
		for _, must := range []string{"packet.wire_encode_ns", "flow.idof_ns", "core.classify_32b_ns",
			"ingest.client_send_ns", "flow.cdb_hit_share", "layers.sum_us_per_packet"} {
			if rec.Metrics[must].Value <= 0 {
				t.Errorf("%s: %s = %v", name, must, rec.Metrics[must].Value)
			}
		}
		routed := rec.Metrics["cluster.forwarded"].Value
		if w.Spec.Routed != (routed > 0) {
			t.Errorf("%s: cluster.forwarded = %v", name, routed)
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+name+".json")); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// check must notice when the system's books do not balance.
func TestCheckCatchesBrokenConservation(t *testing.T) {
	w, _ := workloadByName("mice")
	e, err := setup(w, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.warmUp(e.lapPackets); err != nil {
		t.Fatal(err)
	}
	if err := e.finish(); err != nil {
		t.Fatal(err)
	}
	if v := e.check(); v.failed != 0 || len(v.problems) != 0 {
		t.Fatalf("clean run flagged: %+v", v.problems)
	}
	// Pretend one more packet was sent than the system ever received.
	e.sent++
	if v := e.check(); v.failed != 1 || len(v.problems) == 0 {
		t.Fatalf("a lost packet went unnoticed: failed=%d problems=%v", v.failed, v.problems)
	}
}
