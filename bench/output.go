package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

type packetCounts struct {
	Warm     int `json:"warm"`
	Saturate int `json:"saturate"`
	Paced    int `json:"paced"`
	Drain    int `json:"drain"`
}

// record is one run of one workload, traced or not. Every record carries
// the box and load it was taken on, so a number is never read without
// its num_cpu.
type record struct {
	Workload   string  `json:"workload"`
	Traced     bool    `json:"traced"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Transport  string  `json:"transport"`

	Packets   packetCounts   `json:"packets"`
	PacedRate float64        `json:"paced_rate_per_s"`
	Flows     int            `json:"flows"`
	Samples   map[string]int `json:"samples"`

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Correct   bool     `json:"correct"`
	Problems  []string `json:"problems,omitempty"`

	Metrics metricSet `json:"metrics"`
	// CV holds the coefficient of variation of each isolated timing in
	// Metrics (min of 5 repeats).
	CV map[string]float64 `json:"cv,omitempty"`
	// Extra holds figures that explain the metrics but are not themselves
	// tracked.
	Extra map[string]float64 `json:"extra,omitempty"`
	Notes []string           `json:"notes,omitempty"`
}

func newRecord(w *workload, seed int64, seconds float64, traced bool) *record {
	return &record{
		Workload: w.Name, Traced: traced, Seed: seed, Seconds: seconds,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Transport: "loopback-tcp", PacedRate: w.pacedRate(),
	}
}

// finishCheck folds the verdict audit into the record. A run is correct
// only when nothing failed and every audit passed.
func (r *record) finishCheck(v verdicts, attempted int) {
	r.Attempted = attempted
	r.Failed = v.failed
	r.Problems = v.problems
	r.Correct = v.failed == 0 && len(v.problems) == 0
}

// resultLine is the last line of standard output the driver parses.
type resultLine struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func (r *record) resultLine() string {
	b, _ := json.Marshal(resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics})
	return string(b)
}

// print writes every metric of the record by name with its unit, in the
// order of the metric tables.
func (r *record) print(w io.Writer) {
	kind, defs := "untraced", endToEnd
	if r.Traced {
		kind, defs = "traced", perLayer
	}
	fmt.Fprintf(w, "== %s (%s) seed=%d seconds=%g num_cpu=%d gomaxprocs=%d %s %s\n",
		r.Workload, kind, r.Seed, r.Seconds, r.NumCPU, r.GOMAXPROCS, r.GoVersion, r.Transport)
	fmt.Fprintf(w, "   packets warm=%d saturate=%d paced=%d drain=%d  paced_rate=%.0f/s  flows=%d\n",
		r.Packets.Warm, r.Packets.Saturate, r.Packets.Paced, r.Packets.Drain, r.PacedRate, r.Flows)
	for _, d := range defs {
		line := fmt.Sprintf("   %-36s %14.4f %-6s", d.Name, r.Metrics[d.Name].Value, d.Unit)
		if cv, ok := r.CV[d.Name]; ok {
			line += fmt.Sprintf(" cv=%.3f", cv)
		}
		if d.Bound > 0 {
			line += fmt.Sprintf(" bound=%.0f%%", d.Bound*100)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	for _, k := range sortedKeys(r.Samples) {
		fmt.Fprintf(w, "   samples.%-28s %14d\n", k, r.Samples[k])
	}
	for _, k := range sortedKeys(r.Extra) {
		fmt.Fprintf(w, "   extra.%-30s %14.4f\n", k, r.Extra[k])
	}
	fmt.Fprintf(w, "   attempted=%d failed=%d failed_share=%g correct=%v\n",
		r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)), r.Correct)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "   PROBLEM: %s\n", p)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runFile is what -out writes and -compare reads.
type runFile struct {
	Records []*record `json:"records"`
}

func writeRunFile(path string, rf runFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readRunFile(path string) (runFile, error) {
	var rf runFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// benchmarkJSON is the contract file at the repository root. It is
// generated from the metric and workload tables by -emit-benchmark-json.
type benchmarkJSON struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []map[string]any `json:"workloads"`
	EndToEnd   []map[string]any `json:"end_to_end"`
	PerLayer   []map[string]any `json:"per_layer"`
}

func emitBenchmarkJSON(w io.Writer) error {
	bj := benchmarkJSON{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, wl := range workloads {
		// The contract allows a workload only a name and a why, so the
		// frozen load rides in the why.
		why := fmt.Sprintf("%s [sat %d; paced %d @ %.0f/s]", wl.Why, wl.SatPackets, wl.PacedPackets, wl.pacedRate())
		bj.Workloads = append(bj.Workloads, map[string]any{"name": wl.Name, "why": why})
	}
	for _, d := range endToEnd {
		bj.EndToEnd = append(bj.EndToEnd, map[string]any{"name": d.Name, "unit": d.Unit, "better": d.Better, "bound": d.Bound})
	}
	for _, d := range perLayer {
		bj.PerLayer = append(bj.PerLayer, map[string]any{"name": d.Name, "unit": d.Unit, "better": d.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(bj)
}
