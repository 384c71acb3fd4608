package main

import (
	"fmt"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"time"
)

// sampler polls, from outside, what the system only exposes as gauges:
// the ingest backlog (packets admitted to worker queues but not yet at a
// worker), the pending-flow count and the live heap.
type sampler struct {
	stop    chan struct{}
	done    sync.WaitGroup
	backlog []int64
	pending int
	heap    uint64
}

const sampleEvery = 2 * time.Millisecond

func startSampler(e *env) *sampler {
	s := &sampler{stop: make(chan struct{})}
	heapSample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			// The backlog matters while pacing (a saturate slice keeps the
			// queues full by design). Admitted is read first: a packet may
			// reach a worker between the two reads, which can only shrink
			// the difference.
			if e.tap.latFrom.Load() != noWindow {
				if b := int64(e.sys.admitted()) - e.probe.seen.Load(); b >= 0 {
					s.backlog = append(s.backlog, b)
				}
			}
			if p := e.sys.pending(); p > s.pending {
				s.pending = p
			}
			metrics.Read(heapSample)
			if h := heapSample[0].Value.Uint64(); h > s.heap {
				s.heap = h
			}
		}
	}()
	return s
}

func (s *sampler) finish() {
	close(s.stop)
	s.done.Wait()
}

// runTraced is the run every per-layer metric comes from: the isolated
// layer table, then the system driven first untraced (the baseline the
// tracing overhead and the reconciliation are judged against) and then
// with every seam recording.
func runTraced(w *workload, seed int64, seconds float64, outDir string) (*record, error) {
	e, err := setup(w, seed, true)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	fail := func(err error) (*record, error) {
		e.sys.shutdown()
		return nil, err
	}
	lt, err := measureLayers(e)
	if err != nil {
		return fail(err)
	}

	// A traced invocation has the same -seconds as an untraced one but
	// spends about a quarter of it in the layer table: each of its two
	// saturate slices gets a quarter of the untraced plan's saturate
	// packets, the paced slice all of its paced packets.
	full := e.planFor(seconds, 1)
	pl := plan{warm: full.warm, sat: full.sat / 4 / satSegments * satSegments, paced: full.paced}

	if err := e.warmUp(pl.warm); err != nil {
		return fail(err)
	}
	var base, traced measure
	if err := e.saturate(pl.sat, &base); err != nil {
		return fail(err)
	}

	// Switch every seam to recording.
	horizon := int(e.gen.pktIdx) + pl.sat + pl.paced + 2*e.lapPackets
	tl := newTraceLog(horizon, horizon*len(e.descs)/e.lapPackets+len(e.descs))
	e.tl = tl
	e.probe.arrivals.Store(&tl.arrivals)
	e.tap.trace.Store(tl)
	e.wire.on.Store(true)
	var gc0 debug.GCStats
	debug.ReadGCStats(&gc0)
	smp := startSampler(e)
	tracedFrom := e.sent

	if err := e.saturate(pl.sat, &traced); err != nil {
		smp.finish()
		return fail(err)
	}
	pacedFrom := e.gen.pktIdx
	e.openLatency(pl.paced)
	err = e.paced(pl.paced)
	smp.finish()
	if err != nil {
		return fail(err)
	}
	pacedTo := e.gen.pktIdx
	tracedPackets := e.sent - tracedFrom
	e.wire.on.Store(false)
	var gc1 debug.GCStats
	debug.ReadGCStats(&gc1)
	drainFrom := e.sent
	if err := e.finish(); err != nil {
		return nil, err
	}
	v := e.check()

	// Join the logs; the workers that wrote them have exited.
	lat := e.tap.lat.sorted()
	spans := tl.spans(e.descs)
	summary := summariseSpans(spans)
	var toWorker, sendNs []int64
	for _, s := range tl.sends {
		if s.pkt < pacedFrom || s.pkt >= pacedTo {
			continue
		}
		// Only the paced phase gives a send its true cost (under saturation
		// Write mostly waits for the peer) and a due stamp to count from.
		sendNs = append(sendNs, s.end-s.start)
		if at := tl.arrivals[s.pkt]; at > 0 {
			toWorker = append(toWorker, at-s.due)
		}
	}
	toWorker, sendNs = sortedCopy(toWorker), sortedCopy(sendNs)
	backlog := sortedCopy(smp.backlog)
	var pauses []int64
	for i := 0; i < int(gc1.NumGC-gc0.NumGC) && i < len(gc1.Pause); i++ {
		pauses = append(pauses, int64(gc1.Pause[i]))
	}
	pauses = sortedCopy(pauses)

	st := v.stats
	vals := lt.values
	vals["ingest.client_send_ns"] = float64(percentile(sendNs, 50))
	vals["ingest.read_calls_per_packet"] = float64(e.wire.reads.Load()) / float64(tracedPackets)
	vals["ingest.wire_bytes_per_packet"] = float64(e.wire.bytes.Load()) / float64(tracedPackets)
	vals["ingest.socket_to_worker_p50_us"] = float64(percentile(toWorker, 50)) / 1e3
	vals["ingest.socket_to_worker_p99_us"] = float64(tailPercentile(toWorker, 99)) / 1e3
	vals["ingest.backlog_p99"] = float64(tailPercentile(backlog, 99))
	vals["ingest.shed"] = float64(st.Ingest.Shed)
	vals["ingest.quarantined"] = float64(st.Ingest.Quarantined)
	vals["ingest.engine_errors"] = float64(st.Ingest.EngineErrors)

	routedPackets := 0
	for _, q := range st.Engine.QueueCounts {
		routedPackets += q
	}
	hits := routedPackets - st.Engine.Classified - st.Engine.Fallback
	// Every data packet asks the CDB; the ones it does not know are the
	// pre-verdict packets.
	lookups := float64(e.dataSent)
	closes := float64(e.sent - e.dataSent)
	vals["flow.cdb_hit_share"] = float64(hits) / lookups
	vals["flow.pending_peak"] = float64(smp.pending)
	vals["flow.evicted"] = float64(st.Engine.Evicted)
	vals["flow.fallback"] = float64(st.Engine.Fallback)
	vals["flow.dropped"] = float64(st.Engine.Dropped)

	vals["core.classify_calls"] = float64(e.tap.verdicts.Load())
	vals["core.classify_busy_share"] = float64(traced.busyNs) / float64(traced.cpuNs)

	if w.Spec.Routed {
		vals["cluster.forwarded"] = float64(st.Router.Forwarded)
		vals["cluster.journal_dropped"] = float64(st.Router.JournalDropped)
		most, total := 0, 0
		for _, n := range st.PerNode {
			total += n
			if n > most {
				most = n
			}
		}
		if total > 0 {
			vals["cluster.node_skew"] = float64(most) * float64(len(st.PerNode)) / float64(total)
		}
		direct, err := directCost(w, seed, pl)
		if err != nil {
			return nil, err
		}
		vals["cluster.hop_cost_us_per_packet"] = (base.cpuPerPacketNs() - direct) / 1e3
	}

	vals["runtime.gc_pause_p99_us"] = float64(tailPercentile(pauses, 99)) / 1e3
	vals["runtime.gc_cycles"] = float64(gc1.NumGC - gc0.NumGC)
	vals["runtime.heap_peak_mb"] = float64(smp.heap) / 1e6

	vals["gen.lag_p99_us"] = float64(tailPercentile(e.lags.sorted(), 99)) / 1e3
	vals["gen.flows_per_s"] = median(base.fps)
	vals["gen.payload_mb_per_s"] = median(base.payloadMBps)
	vals["gen.verdict_latency_p50_us"] = float64(percentile(lat, 50)) / 1e3
	vals["gen.verdict_latency_p90_us"] = float64(tailPercentile(lat, 90)) / 1e3
	vals["gen.verdict_latency_p99_us"] = float64(tailPercentile(lat, 99)) / 1e3
	vals["gen.latency_unmatched"] = float64(e.tap.unmatched.Load())
	vals["gen.trace_overhead_share"] = 1 - median(traced.pps)/median(base.pps)

	// Reconciliation: the isolated rows weighted by the run's own
	// operation counts, against the untraced baseline's CPU per packet.
	perPacket := func(count float64) float64 { return count / float64(e.sent) }
	preVerdict := lookups - float64(hits)
	classify := vals["core.classify_32b_ns"]
	switch {
	case w.Spec.Stream:
		// The engine, not the classifier, writes the sketch and reads its
		// vector, so flow.engine_newflow_ns already carries both.
		classify = vals["core.classify_vector_cart_ns"]
	case w.Spec.BufferSize >= 1024:
		classify = vals["core.classify_1k_ns"]
	}
	hops := 1.0
	if w.Spec.Routed {
		hops = 2
	}
	sumNs := hops*(vals["ingest.client_send_ns"]+vals["ingest.frame_decode_ns"]) +
		vals["flow.idof_ns"] + // the ingest server routes packets to workers by flow ID
		perPacket(float64(hits))*vals["flow.engine_hit_ns"] +
		perPacket(preVerdict)*vals["flow.engine_newflow_ns"] +
		perPacket(float64(st.Engine.Classified))*classify +
		perPacket(closes)*(vals["flow.idof_ns"]+vals["flow.cdb_close_ns"])
	if w.Spec.Routed {
		sumNs += vals["cluster.ring_owner_ns"]
	}
	cpuPerPacket := base.cpuPerPacketNs()
	vals["layers.sum_us_per_packet"] = sumNs / 1e3
	vals["layers.residual_share"] = 1 - sumNs/cpuPerPacket

	rec := newRecord(w, seed, seconds, true)
	rec.Packets = packetCounts{Warm: pl.warm, Saturate: 2 * pl.sat, Paced: pl.paced, Drain: int(e.sent - drainFrom)}
	rec.Flows = v.flows
	rec.Samples = map[string]int{
		"verdict_latency":   len(lat),
		"socket_to_worker":  len(toWorker),
		"client_send":       len(sendNs),
		"backlog":           len(backlog),
		"gc_pauses":         len(pauses),
		"spans":             len(spans),
		"isolate_repeats":   isolateRepeats,
		"ambiguous_flows":   e.ambiguous,
		"trace_sample_rate": traceSampleEvery,
	}
	rec.finishCheck(v, int(e.sent))
	rec.Metrics = fill(perLayer, vals)
	rec.CV = lt.cv
	rec.Extra = map[string]float64{
		"untraced_packets_per_s":     median(base.pps),
		"traced_packets_per_s":       median(traced.pps),
		"untraced_cpu_us_per_packet": cpuPerPacket / 1e3,
		"backlog_max":                float64(percentile(backlog, 100)),
	}
	if r := vals["layers.residual_share"]; r > residualLimit {
		rec.Notes = append(rec.Notes, fmt.Sprintf(
			"layers.residual_share %.2f > %.2f: table is missing a layer (kernel socket path, queue handoff, scheduling and GC have no isolated row)",
			r, residualLimit))
	}
	counts := map[string]float64{}
	for _, d := range perLayer {
		if d.Unit == "count" || d.Unit == "share" {
			counts[d.Name] = vals[d.Name]
		}
	}
	path, err := writeTraceFile(outDir, traceFile{Workload: w.Name, Seed: seed, Summary: summary,
		Counts: counts, SpansRecorded: len(spans), Spans: spans})
	if err != nil {
		return nil, err
	}
	rec.Notes = append(rec.Notes, "trace written to "+path)
	return rec, nil
}

// directCost sends the routed workload's warm-up and baseline packets
// straight to one serve node, no router, and returns the CPU nanoseconds
// per packet of the saturate part: what mix_routed would cost without the
// hop.
func directCost(w *workload, seed int64, pl plan) (float64, error) {
	direct := *w
	direct.Spec.Routed = false
	e, err := setup(&direct, seed, false)
	if err != nil {
		return 0, err
	}
	var sat measure
	err = e.warmUp(pl.warm)
	if err == nil {
		err = e.saturate(pl.sat, &sat)
	}
	if err != nil {
		e.sys.shutdown()
		return 0, err
	}
	if err := e.finish(); err != nil {
		return 0, err
	}
	if v := e.check(); v.failed > 0 || len(v.problems) > 0 {
		return 0, fmt.Errorf("direct comparison run is not correct: %v", v.problems)
	}
	return sat.cpuPerPacketNs(), nil
}
