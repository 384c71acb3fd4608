package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
)

// Tracing records raw events at the benchmark's own seams during a traced
// run and joins them into spans when the run ends: the generator logs the
// Client.SendSeq call of every trigger packet and of 1 packet in 64, the
// probe stamps every packet's arrival at a worker, and the tap logs every
// classification. Nothing is written until the system is shut down.

const traceSampleEvery = 64

type sendRec struct {
	pkt        int64
	desc       int32
	due        int64
	start, end int64
}

type classRec struct {
	desc       int32
	pkt        int64
	due        int64
	start, end int64
}

type traceLog struct {
	// arrivals[i] is when packet i reached PreProcess (0: not yet).
	arrivals []int64
	sends    []sendRec // generator goroutine only
	classes  []classRec
	nClass   atomic.Int64
}

func newTraceLog(packets, flows int) *traceLog {
	return &traceLog{
		arrivals: make([]int64, packets),
		sends:    make([]sendRec, 0, flows+packets/traceSampleEvery+1),
		classes:  make([]classRec, flows),
	}
}

func (tl *traceLog) classified(desc int32, pkt, due, start, end int64) {
	i := tl.nClass.Add(1) - 1
	if int(i) < len(tl.classes) {
		tl.classes[i] = classRec{desc: desc, pkt: pkt, due: due, start: start, end: end}
	}
}

// span is one timed interval at a layer boundary. Spans of one flow share
// ID (the flow's classifier-input hash); Parent indexes the causing span
// in the same slice, -1 for a root.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

const (
	spanVerdict  = "flow.verdict"
	spanSend     = "gen.send"
	spanToWorker = "ingest.socket_to_worker"
	spanClassify = "core.classify"
)

// spans joins the raw logs. Every classification whose trigger packet was
// logged yields a flow.verdict root (due stamp to classifier return) with
// gen.send, ingest.socket_to_worker and core.classify children; sampled
// packets that triggered nothing yield parentless gen.send and
// ingest.socket_to_worker spans.
func (tl *traceLog) spans(descs []flowDesc) []span {
	sendOf := make(map[int64]int, len(tl.sends))
	for i, s := range tl.sends {
		sendOf[s.pkt] = i
	}
	arrival := func(pkt int64) int64 {
		if pkt >= 0 && pkt < int64(len(tl.arrivals)) {
			return tl.arrivals[pkt]
		}
		return 0
	}
	n := int(tl.nClass.Load())
	if n > len(tl.classes) {
		n = len(tl.classes)
	}
	out := make([]span, 0, 4*n+2*len(tl.sends))
	used := make(map[int64]bool, n)
	for _, c := range tl.classes[:n] {
		id := descs[c.desc].hash
		root := len(out)
		out = append(out, span{Name: spanVerdict, ID: id, Parent: -1, Start: c.due, End: c.end})
		if si, ok := sendOf[c.pkt]; ok {
			s := tl.sends[si]
			out = append(out, span{Name: spanSend, ID: id, Parent: root, Start: s.start, End: s.end})
			used[c.pkt] = true
		}
		if at := arrival(c.pkt); at > 0 {
			out = append(out, span{Name: spanToWorker, ID: id, Parent: root, Start: c.due, End: at})
		}
		out = append(out, span{Name: spanClassify, ID: id, Parent: root, Start: c.start, End: c.end})
	}
	for _, s := range tl.sends {
		if used[s.pkt] {
			continue
		}
		id := descs[s.desc].hash
		out = append(out, span{Name: spanSend, ID: id, Parent: -1, Start: s.start, End: s.end})
		if at := arrival(s.pkt); at > 0 {
			out = append(out, span{Name: spanToWorker, ID: id, Parent: -1, Start: s.due, End: at})
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Overlapping children are
// counted once, and a child is clipped to its parent.
func selfTimes(spans []span) []int64 {
	type iv struct{ a, b int64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		a, b := s.Start, s.End
		if a < p.Start {
			a = p.Start
		}
		if b > p.End {
			b = p.End
		}
		if b > a {
			kids[s.Parent] = append(kids[s.Parent], iv{a, b})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		ivs := kids[i]
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, edge int64
		edge = s.Start
		for _, v := range ivs {
			if v.b <= edge {
				continue
			}
			if v.a > edge {
				edge = v.a
			}
			covered += v.b - edge
			edge = v.b
		}
		self[i] -= covered
	}
	return self
}

// spanSummary aggregates one span name.
type spanSummary struct {
	Count   int     `json:"count"`
	TotalUs float64 `json:"total_us"`
	SelfUs  float64 `json:"self_us"`
	P50Us   float64 `json:"p50_us"`
}

func summariseSpans(spans []span) map[string]spanSummary {
	self := selfTimes(spans)
	durs := make(map[string][]int64)
	sum := make(map[string]spanSummary)
	for i, s := range spans {
		v := sum[s.Name]
		v.Count++
		v.TotalUs += float64(s.End-s.Start) / 1e3
		v.SelfUs += float64(self[i]) / 1e3
		sum[s.Name] = v
		durs[s.Name] = append(durs[s.Name], s.End-s.Start)
	}
	for name, v := range sum {
		v.P50Us = float64(percentile(sortedCopy(durs[name]), 50)) / 1e3
		sum[name] = v
	}
	return sum
}

// traceFile is what a traced run leaves in out/trace-<workload>.json.
type traceFile struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Summary  map[string]spanSummary `json:"summary"`
	Counts   map[string]float64     `json:"counts"`
	// Spans is capped; Summary covers every span recorded.
	SpansRecorded int    `json:"spans_recorded"`
	Spans         []span `json:"spans"`
}

const traceFileSpanCap = 20000

func writeTraceFile(dir string, tf traceFile) (string, error) {
	if len(tf.Spans) > traceFileSpanCap {
		tf.Spans = tf.Spans[:traceFileSpanCap]
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
