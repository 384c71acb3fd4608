package main

import (
	"math"
	"testing"
)

// The open loop stamps a packet with when it was due, not when it could
// finally be sent: a stall makes later packets late, it does not move
// their schedule.
func TestPacerStampsDueTimeNotSendTime(t *testing.T) {
	clock := int64(1000)
	var idled []int64
	pc := &pacer{wall0: 1000, virt0: 50,
		now:  func() int64 { return clock },
		idle: func(remaining int64) { idled = append(idled, remaining); clock += remaining },
	}
	// Packet due in the future: wait for it, no lag.
	due, lag := pc.wait(60)
	if due != 1010 || lag != 0 || len(idled) != 1 || idled[0] != 10 {
		t.Fatalf("on-time packet: due=%d lag=%d idled=%v", due, lag, idled)
	}
	// The generator stalls 500 ns. The next three packets were due during
	// the stall: each keeps its own due time and reports how late it is.
	clock += 500
	for i, virt := range []int64{70, 80, 90} {
		due, lag := pc.wait(virt)
		wantDue := int64(1000 + virt - 50)
		if due != wantDue || lag != clock-wantDue {
			t.Fatalf("late packet %d: due=%d lag=%d, want due=%d lag=%d", i, due, lag, wantDue, clock-wantDue)
		}
	}
	if len(idled) != 1 {
		t.Fatalf("late packets must not wait: idled %v", idled)
	}
}

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// 200 samples cannot carry a p99 (2 samples beyond it): the read steps
	// down to p90, which has 20.
	xs := make([]int64, 200)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	if got := tailPercentile(xs, 99); got != 180 {
		t.Errorf("tailPercentile(1..200, 99) = %d, want the p90 180", got)
	}
	if got := percentile(xs, 50); got != 100 {
		t.Errorf("percentile(1..200, 50) = %d, want 100", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// the driver uses to judge a metric's spread.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{12.5, 3, 8, 21, 5.5, 13, 9, 30, 2, 17}
	q1, q3 := quartiles(xs)
	// >>> statistics.quantiles([12.5,3,8,21,5.5,13,9,30,2,17], n=4)
	// [4.875, 10.75, 18.0]
	if math.Abs(q1-4.875) > 1e-12 || math.Abs(q3-18.0) > 1e-12 {
		t.Fatalf("quartiles = %v, %v; want 4.875, 18", q1, q3)
	}
	if got, want := spreadShare(xs), (18.0-4.875)/10.75; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spreadShare = %v, want %v", got, want)
	}
	if m := median([]float64{4, 1, 3}); m != 3 {
		t.Fatalf("median = %v", m)
	}
	min, cv := minAndCV([]float64{10, 10, 10, 10})
	if min != 10 || cv != 0 {
		t.Fatalf("minAndCV of a constant = %v, %v", min, cv)
	}
}

// Self time is duration minus the part of the span its children cover:
// overlapping children count once, children are clipped to the parent,
// and grandchildren do not reduce the grandparent.
func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},  // overlaps a by 10
		{Name: "c", Parent: 0, Start: 90, End: 120}, // sticks out by 20
		{Name: "a1", Parent: 1, Start: 15, End: 25},
		{Name: "lone", Parent: -1, Start: 5, End: 6},
	}
	want := []int64{
		100 - (50 + 10), // [10,60) and [90,100)
		30 - 10,
		30,
		30,
		10,
		1,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	sum := summariseSpans(spans)
	if s := sum["root"]; s.Count != 1 || s.TotalUs != 0.1 || s.SelfUs != 0.04 {
		t.Errorf("summary of root = %+v", s)
	}
}

// The trace join: a classification whose trigger packet was logged
// becomes a flow.verdict root with its three children, all sharing the
// flow's hash; a sampled packet that triggered nothing stays parentless.
func TestTraceJoin(t *testing.T) {
	descs := []flowDesc{{hash: 0xaa}, {hash: 0xbb}}
	tl := newTraceLog(10, 4)
	tl.sends = append(tl.sends,
		sendRec{pkt: 3, desc: 0, due: 100, start: 101, end: 104},
		sendRec{pkt: 4, desc: 1, due: 110, start: 111, end: 113})
	tl.arrivals[3], tl.arrivals[4] = 120, 125
	tl.classified(0, 3, 100, 130, 150)
	spans := tl.spans(descs)
	var names []string
	for _, s := range spans {
		names = append(names, s.Name)
	}
	wantNames := []string{spanVerdict, spanSend, spanToWorker, spanClassify, spanSend, spanToWorker}
	if len(names) != len(wantNames) {
		t.Fatalf("spans %v, want %v", names, wantNames)
	}
	for i := range wantNames {
		if names[i] != wantNames[i] {
			t.Fatalf("spans %v, want %v", names, wantNames)
		}
	}
	for i, s := range spans[:4] {
		if s.ID != 0xaa || (i > 0 && s.Parent != 0) {
			t.Errorf("span %d of the classified flow: %+v", i, s)
		}
	}
	if spans[0].Start != 100 || spans[0].End != 150 || spans[2].End != 120 {
		t.Errorf("verdict %+v to-worker %+v", spans[0], spans[2])
	}
	if spans[4].Parent != -1 || spans[4].ID != 0xbb {
		t.Errorf("untriggered sample: %+v", spans[4])
	}
	// verdict [100,150): send [101,104) and to-worker [100,120) overlap,
	// classify [130,150): 10 ns uncovered.
	if self := selfTimes(spans); self[0] != 10 {
		t.Errorf("verdict self time %d, want 10", self[0])
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name   string
		b      []float64
		better string
		bound  float64
		want   string
	}{
		{"same", []float64{103, 104, 102, 103, 103}, "lower", 0.10, verdictSame},
		{"better", []float64{80, 81, 79, 80, 80}, "lower", 0.10, verdictSame},
		{"worse lower-is-better", []float64{115, 116, 114, 115, 115}, "lower", 0.10, verdictWorse},
		{"worse higher-is-better", []float64{85, 86, 84, 85, 85}, "higher", 0.10, verdictWorse},
		{"higher is fine when higher is better", []float64{115, 116, 114, 115, 115}, "higher", 0.10, verdictSame},
		{"spread wider than bound", []float64{80, 130, 100, 60, 140}, "lower", 0.10, verdictUnresolved},
	} {
		if got, _ := judge(steady, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
