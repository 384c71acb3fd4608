package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"
)

const (
	// rounds is how many times an untraced run alternates a saturate slice
	// and a paced slice. The box this runs on changes speed for seconds at
	// a time (neighbours on the host); interleaving spreads each phase's
	// samples over the whole run instead of one contiguous stretch.
	rounds = 3
	// satSegments is how many equal packet-count segments one saturate
	// slice is cut into; rates are the median over all segments of the
	// run, so a GC cycle or a scheduling hiccup moves one segment, not the
	// metric.
	satSegments = 32
	// setupRepeats is how many times an untraced run sets the system up;
	// setup_s is the median.
	setupRepeats = 3
)

// measure accumulates what the saturate slices of one run observed.
type measure struct {
	packets             int
	wallNs, cpuNs       int64
	mallocs, allocBytes uint64
	verdicts, busyNs    int64
	// cal is the calibration that ran beside the slices, when a calibrator
	// is running (untraced runs).
	cal calSpan
	// One entry per segment.
	pps, fps, payloadMBps []float64
}

func (m *measure) cpuPerPacketNs() float64 { return float64(m.cpuNs) / float64(m.packets) }

// saturate pushes n packets (a multiple of satSegments) as fast as block
// backpressure admits, measures until the last one reaches a worker, and
// adds what it saw to m.
func (e *env) saturate(n int, m *measure) error {
	seg := int64(n / satSegments)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	v0, b0 := e.tap.verdicts.Load(), e.tap.busyNs.Load()

	e.segBase, e.segSize, e.segBytes = e.sent, seg, []int64{e.payloadSent}
	for i := range e.probe.marks {
		e.probe.marks[i].set(0, 0)
	}
	e.probe.segBase.Store(e.sent)
	var cal0 calMark
	if e.cal != nil {
		cal0 = e.cal.mark()
	}
	cpu0, t0 := cpuNs(), nowNs()
	e.probe.marks[0].set(t0, v0)
	e.probe.segSize.Store(seg)

	err := e.send(n, nil)
	if err == nil {
		err = e.settle()
	}
	t1, cpu1 := nowNs(), cpuNs()
	if e.cal != nil {
		m.cal.add(cal0, e.cal.mark())
	}
	e.probe.segSize.Store(0)
	e.segSize = 0
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)

	m.packets += n
	m.wallNs += t1 - t0
	m.cpuNs += cpu1 - cpu0
	m.mallocs += ms1.Mallocs - ms0.Mallocs
	m.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
	m.verdicts += e.tap.verdicts.Load() - v0
	m.busyNs += e.tap.busyNs.Load() - b0
	for k := 1; k <= satSegments; k++ {
		a, b := &e.probe.marks[k-1], &e.probe.marks[k]
		// The worker that crossed the last boundary stores its mark just
		// after counting the packet settle saw; give it a moment.
		for spin := 0; b.at.Load() == 0 && spin < 1000; spin++ {
			time.Sleep(10 * time.Microsecond)
		}
		dt := float64(b.at.Load()-a.at.Load()) / 1e9
		if dt <= 0 {
			return errors.New("saturate: a segment boundary was never marked")
		}
		m.pps = append(m.pps, float64(seg)/dt)
		m.fps = append(m.fps, float64(b.verdicts.Load()-a.verdicts.Load())/dt)
		m.payloadMBps = append(m.payloadMBps, float64(e.segBytes[k]-e.segBytes[k-1])/1e6/dt)
	}
	return nil
}

// openLatency readies the verdict-latency and generator-lag stores for
// up to n paced packets.
func (e *env) openLatency(n int) {
	flows := n*len(e.descs)/e.lapPackets + len(e.descs)
	e.tap.lat = newSampleBuf(flows + flows/4)
	e.lags = newSampleBuf(n)
	e.tap.unmatched.Store(0)
}

// paced sends n packets open loop at the workload's frozen rate. Flows
// whose trigger packet falls in the slice add a verdict-latency sample to
// the store openLatency made.
func (e *env) paced(n int) error {
	pc := &pacer{wall0: nowNs(), virt0: e.gen.pktIdx * e.w.PacedTickNs, now: nowNs, idle: idleWait}
	e.tap.latFrom.Store(pc.wall0)
	err := e.send(n, pc)
	if err == nil {
		err = e.settle()
	}
	// Let the last batch's classifications land before closing the window.
	time.Sleep(2 * time.Millisecond)
	e.tap.latFrom.Store(noWindow)
	return err
}

// warmUp sends the un-timed first packets: dial, fill caches and pools,
// let the CDB reach its steady size.
func (e *env) warmUp(n int) error {
	if err := e.send(n, nil); err != nil {
		return err
	}
	return e.settle()
}

// plan is a run's packet budget: totals over all rounds.
type plan struct {
	warm, sat, paced int
}

// planFor scales the workload's frozen counts from defaultSeconds to
// seconds, and by scale for the 1/100-size smoke run. Counts come out as
// multiples of rounds × satSegments.
func (e *env) planFor(seconds, scale float64) plan {
	f := seconds / defaultSeconds * scale
	const quantum = rounds * satSegments
	round := func(n int) int {
		n = int(float64(n)*f) / quantum * quantum
		if n < 4*quantum {
			n = 4 * quantum
		}
		return n
	}
	warm := e.lapPackets
	if scale < 1 {
		warm = round(e.lapPackets)
	}
	return plan{warm: warm, sat: round(e.w.SatPackets), paced: round(e.w.PacedPackets)}
}

// runUntraced is the run every end-to-end metric comes from.
func runUntraced(w *workload, seed int64, seconds, scale float64) (*record, error) {
	repeats := setupRepeats
	if scale < 1 {
		repeats = 1
	}
	cal := startCalibrator()
	defer cal.finish()
	var e *env
	var setups []float64
	var setupCal calSpan
	for i := 0; i < repeats; i++ {
		if e != nil {
			if err := e.sys.shutdown(); err != nil {
				return nil, err
			}
		}
		c0, t0 := cal.mark(), time.Now()
		var err error
		if e, err = setup(w, seed, false); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		setupCal.add(c0, cal.mark())
	}
	e.cal = cal
	pl := e.planFor(seconds, scale)
	fail := func(err error) (*record, error) {
		e.sys.shutdown()
		return nil, err
	}
	if err := e.warmUp(pl.warm); err != nil {
		return fail(err)
	}
	var m measure
	e.openLatency(pl.paced)
	for r := 0; r < rounds; r++ {
		if err := e.saturate(pl.sat/rounds, &m); err != nil {
			return fail(err)
		}
		if err := e.paced(pl.paced / rounds); err != nil {
			return fail(err)
		}
	}
	drainFrom := e.sent
	if err := e.finish(); err != nil {
		return nil, err
	}
	lat := e.tap.lat.sorted() // the workers that wrote it have exited
	v := e.check()
	resident, err := residentPerPendingFlow(e)
	if err != nil {
		return nil, err
	}

	rec := newRecord(w, seed, seconds, false)
	rec.Packets = packetCounts{Warm: pl.warm, Saturate: pl.sat, Paced: pl.paced, Drain: int(e.sent - drainFrom)}
	rec.Flows = v.flows
	rec.Samples = map[string]int{
		"verdict_latency":   len(lat),
		"latency_unmatched": int(e.tap.unmatched.Load()),
		"latency_dropped":   int(e.tap.lat.dropped.Load()),
		"ambiguous_flows":   e.ambiguous,
		"lap_flows":         len(e.descs),
		"setup":             len(setups),
		"saturate_segments": len(m.pps),
		"rounds":            rounds,
		"calibration_units": int(m.cal.units),
	}
	rec.finishCheck(v, int(e.sent))
	// The three metrics measured in seconds are reported at reference CPU
	// speed (cal.go); the raw figures are in the extras.
	rawPPS, rawCPU, rawSetup := median(m.pps), m.cpuPerPacketNs()/1e3, median(setups)
	rec.Metrics = fill(endToEnd, map[string]float64{
		"setup_s":                         rawSetup / setupCal.slowdown(),
		"packets_per_s":                   rawPPS * m.cal.slowdown(),
		"cpu_us_per_packet":               rawCPU / m.cal.slowdown(),
		"allocs_per_packet":               float64(m.mallocs) / float64(m.packets),
		"alloc_bytes_per_packet":          float64(m.allocBytes) / float64(m.packets),
		"resident_bytes_per_pending_flow": resident,
		"verdict_accuracy":                float64(v.accurate) / float64(v.flows),
	})
	rec.Extra = map[string]float64{
		"raw_packets_per_s":     rawPPS,
		"raw_cpu_us_per_packet": rawCPU,
		"raw_setup_s":           rawSetup,
		"cal_unit_ns":           m.cal.unitNs(),
		"cal_unit_ns_setup":     setupCal.unitNs(),
		// packets_per_s (raw) in the workload's other units: verdicts
		// issued and payload bytes delivered per wall second.
		"flows_per_s":      median(m.fps),
		"payload_mb_per_s": median(m.payloadMBps),
		// Verdict latency at the frozen paced rate, due stamp to classifier
		// return. Too unsteady on a shared 2-core box to carry a bound
		// (see metrics.go), but every untraced run reports it.
		"verdict_latency_p50_us": float64(percentile(lat, 50)) / 1e3,
		"verdict_latency_p90_us": float64(tailPercentile(lat, 90)) / 1e3,
		"latency_percentile":     supportedPercentile(len(lat)),
		"gen_lag_p99_us":         float64(tailPercentile(e.lags.sorted(), 99)) / 1e3,
		"saturate_wall_s":        float64(m.wallNs) / 1e9,
		"failed_share":           float64(v.failed) / float64(e.sent),
		"classify_busy_share":    float64(m.busyNs) / float64(m.cpuNs),
	}
	return rec, nil
}
