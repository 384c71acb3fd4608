package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// The training corpus is seeded by a constant: the trained model is part
// of the system's configuration, like its flags, while -seed drives only
// what the system receives (pool content, flow shapes, 5-tuples, order).
const (
	trainSeed     = 20090622
	trainPerClass = 250
	trainFileSize = 1024

	// residentFlows is the number of half-filled flows held while
	// resident_bytes_per_pending_flow is measured.
	residentFlows = 2048
)

// env is one assembled system plus everything needed to drive and check
// it.
type env struct {
	w     *workload
	seed  int64
	pool  []File
	descs []flowDesc
	model VectorClassifier
	tap   *tap
	probe *probe
	wire  *wire
	sys   *system
	gen   *generator

	lapPackets int // packets in one lap of descs
	ambiguous  int // lap flows whose classifier-input hash is shared

	sent        int64 // packets handed to the client so far
	dataSent    int64 // of which carrying payload (the rest are FIN/RST closes)
	payloadSent int64
	lags        *sampleBuf // open-loop lateness, one sample per paced packet
	tl          *traceLog  // non-nil while tracing
	cal         *calibrator

	// Saturate-phase segment bookkeeping on the send side: payload bytes
	// sent when each segment boundary was crossed.
	segBase, segSize int64
	segBytes         []int64
}

func (e *env) tick() time.Duration { return time.Duration(e.w.PacedTickNs) }

// setup builds everything a run needs, from the corpus to the listening
// system and its client: what setup_s times.
func setup(w *workload, seed int64, traced bool) (*env, error) {
	e, err := prepare(w, seed)
	if err != nil {
		return nil, err
	}
	e.probe = &probe{tap: e.tap, tickNs: w.PacedTickNs, marks: make([]segMark, satSegments+1)}
	h := hooks{PreProcess: e.probe.preProcess}
	if traced {
		e.wire = &wire{}
		h.WrapListener = e.wire.wrapListener
	}
	if e.sys, err = startSystem(w.Spec, e.tap, h); err != nil {
		return nil, err
	}
	return e, nil
}

// prepare is the part of setup that touches no socket: corpus pool,
// trained model, flow descriptors, reference replay, generator.
func prepare(w *workload, seed int64) (*env, error) {
	e := &env{w: w, seed: seed}
	perClass := (w.FlowsPerLap + NumClasses - 1) / NumClasses
	pool, err := newCorpusPool(seed, perClass, w.FileSize)
	if err != nil {
		return nil, err
	}
	e.pool = pool[:w.FlowsPerLap]
	train, err := newCorpusPool(trainSeed, trainPerClass, trainFileSize)
	if err != nil {
		return nil, err
	}
	if e.model, err = trainModel(train, w.Widths, w.Spec.BufferSize, false); err != nil {
		return nil, err
	}
	e.descs = buildDescs(w, e.pool, seed)
	for i := range e.descs {
		e.lapPackets += e.descs[i].packets()
	}
	e.tap = newTap(e.model, e.descs)
	if err := e.referenceReplay(); err != nil {
		return nil, err
	}
	e.gen = newGenerator(w, e.descs, seed, e.tick())
	return e, nil
}

// referenceReplay plays lap 0 through a single-shard engine in process,
// with the tap recording instead of measuring. It leaves in every
// descriptor the verdict any correct assembly of the system must reach
// for that content, which packet triggers it, and the hash of what the
// classifier is handed; later laps differ only in their 5-tuples.
func (e *env) referenceReplay() error {
	spec := e.w.Spec
	spec.Routed = false
	e.tap.recording = true
	defer func() { e.tap.recording = false }()
	eng, err := newEngine(spec, e.tap, 1)
	if err != nil {
		return err
	}
	for i := range e.descs {
		e.descs[i].trigger = -1
	}
	g := newGenerator(e.w, e.descs, e.seed, e.tick())
	flowPkt := make([]int, len(e.descs)) // next packet index per flow
	var p Packet
	for {
		if g.flows() == uint64(len(e.descs)) {
			g.drain()
		}
		meta, ok := g.next(&p)
		if !ok {
			break
		}
		idx := flowPkt[meta.desc]
		flowPkt[meta.desc]++
		v, err := eng.Process(&p)
		if err != nil {
			return fmt.Errorf("reference replay: %w", err)
		}
		if v.Classified {
			d := &e.descs[meta.desc]
			if v.Fallback || d.trigger >= 0 {
				return fmt.Errorf("reference replay: flow %d classified twice or by fallback", meta.desc)
			}
			d.ref, d.trigger, d.hash = v.Queue, idx, e.tap.lastHash
		}
	}
	for i := range e.descs {
		d := &e.descs[i]
		if d.trigger < 0 {
			return fmt.Errorf("reference replay: flow %d of %s never reaches a verdict", i, e.w.Name)
		}
		if first, dup := e.tap.byHash[d.hash]; dup {
			if !e.descs[first].ambiguous {
				e.descs[first].ambiguous = true
				e.ambiguous++
			}
			d.ambiguous = true
			e.ambiguous++
		} else {
			e.tap.byHash[d.hash] = int32(i)
		}
	}
	return nil
}

// pacer is the open-loop schedule: packet with virtual time v is due at
// wall0 + (v - virt0), whatever happened to the packets before it.
type pacer struct {
	wall0, virt0 int64
	now          func() int64
	idle         func(remaining int64)
}

// wait blocks until the packet is due and returns its due time, which is
// what latency is counted from, and how late the generator ran.
func (pc *pacer) wait(virt int64) (due, lag int64) {
	due = pc.wall0 + virt - pc.virt0
	for {
		now := pc.now()
		if now >= due {
			return due, now - due
		}
		pc.idle(due - now)
	}
}

// idleWait sleeps until the next packet is due. A sleep overshoots a
// microsecond schedule by tens of microseconds, so at high rates packets
// leave in small bursts, each still stamped with its own due time and the
// overshoot reported as lag. Spinning instead would hit the schedule, but
// the generator shares two cores with the system it measures: measured
// here, a yielding spin tripled the median verdict latency and its spread.
func idleWait(remaining int64) { time.Sleep(time.Duration(remaining)) }

// send emits the next n packets of the stream (fewer if the generator
// runs dry while draining): as fast as backpressure admits when pc is nil,
// on pc's schedule otherwise.
func (e *env) send(n int, pc *pacer) error {
	var p Packet
	for i := 0; i < n; i++ {
		meta, ok := e.gen.next(&p)
		if !ok {
			return nil
		}
		sampled := e.tl != nil && (meta.trigger || meta.pktIdx%traceSampleEvery == 0)
		var due int64
		if pc != nil {
			var lag int64
			due, lag = pc.wait(int64(p.Time))
			e.lags.add(lag)
		} else if sampled {
			due = nowNs()
		}
		if meta.trigger && (pc != nil || sampled) {
			e.tap.arm(meta.desc, due, meta.pktIdx)
		}
		var err error
		if sampled {
			start := nowNs()
			err = e.sys.send(&p)
			e.tl.sends = append(e.tl.sends, sendRec{pkt: meta.pktIdx, desc: int32(meta.desc), due: due, start: start, end: nowNs()})
		} else {
			err = e.sys.send(&p)
		}
		if err != nil {
			return fmt.Errorf("send packet %d: %w", meta.pktIdx, err)
		}
		e.sent++
		if len(p.Payload) > 0 {
			e.dataSent++
		}
		e.payloadSent += int64(len(p.Payload))
		if e.segSize > 0 && (e.sent-e.segBase)%e.segSize == 0 {
			e.segBytes = append(e.segBytes, e.payloadSent)
		}
	}
	return nil
}

// settle waits until every packet sent so far has reached a worker.
func (e *env) settle() error {
	if !e.probe.waitSeen(e.sent, drainTimeout) {
		return fmt.Errorf("%d of %d packets never reached a worker", e.sent-e.probe.seen.Load(), e.sent)
	}
	return nil
}

// cpuNs is the process's user+system CPU time so far.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// finish plays every flow in flight to its end and shuts the system down,
// so every flow the run opened has had the chance to get its verdict.
func (e *env) finish() error {
	e.gen.drain()
	if err := e.send(int(^uint(0)>>1), nil); err != nil {
		e.sys.shutdown()
		return err
	}
	if err := e.settle(); err != nil {
		e.sys.shutdown()
		return err
	}
	return e.sys.shutdown()
}

// verdicts is the outcome of checking a finished run against the
// reference replay and the corpus ground truth.
type verdicts struct {
	flows     int
	accurate  int // verdict equals the corpus class of the flow's file
	noVerdict int
	differs   int // verdict differs from the reference replay's
	stats     sysStats
	failed    int
	problems  []string
}

// check reads back the verdict of every flow the run opened and audits
// the system's counters. Call it after finish.
func (e *env) check() verdicts {
	v := verdicts{flows: int(e.gen.flows()), stats: e.sys.stats()}
	for seq := uint64(0); seq < e.gen.flows(); seq++ {
		d := &e.descs[seq%uint64(len(e.descs))]
		c, ok := e.sys.label(tupleFor(e.seed, seq, d.proto))
		switch {
		case !ok:
			v.noVerdict++
		case c != d.ref:
			v.differs++
		}
		if ok && c == d.truth {
			v.accurate++
		}
	}
	st := v.stats
	undelivered := int(e.sent) - st.Ingest.Received
	if undelivered < 0 {
		undelivered = 0
	}
	v.failed = st.Ingest.Shed + st.Ingest.Quarantined + undelivered + st.Ingest.EngineErrors +
		st.Engine.Fallback + v.noVerdict + v.differs
	note := func(cond bool, format string, args ...any) {
		if cond {
			v.problems = append(v.problems, fmt.Sprintf(format, args...))
		}
	}
	note(!st.LawsHold, "a conservation law does not balance: ingest %+v engine %+v", st.Ingest, st.Engine)
	note(undelivered > 0, "%d packets sent but never received", undelivered)
	note(v.noVerdict > 0, "%d flows have no verdict", v.noVerdict)
	note(v.differs > 0, "%d flows differ from the reference replay", v.differs)
	note(st.Engine.Classified != v.flows, "engine classified %d flows, run opened %d", st.Engine.Classified, v.flows)
	note(e.tap.mismatched.Load() > 0, "%d classifications differ from the reference for their input", e.tap.mismatched.Load())
	note(e.tap.unknown.Load() > 0, "%d classifications of input no descriptor predicts", e.tap.unknown.Load())
	if e.w.Spec.Routed {
		r := st.Router
		note(r.Forwarded != int(e.sent), "router forwarded %d of %d packets", r.Forwarded, e.sent)
	}
	return v
}

// residentPerPendingFlow holds residentFlows half-filled flows in a fresh
// engine assembled like the workload's and reports the live heap they
// pin, per flow, after a forced collection.
func residentPerPendingFlow(e *env) (float64, error) {
	spec := e.w.Spec
	spec.Routed = false
	eng, err := newEngine(spec, e.model, serveShards)
	if err != nil {
		return 0, err
	}
	before := liveHeap()
	// Ciphertext: nothing the engine would strip as an application header,
	// so exactly half a buffer stays pending per flow.
	p := Packet{Flags: FlagACK | FlagPSH, Payload: e.encrypted()[:spec.BufferSize/2]}
	for i := 0; i < residentFlows; i++ {
		p.Tuple = tupleFor(e.seed^0x7e5, uint64(i), TCP)
		p.Time = time.Duration(i) * e.tick()
		if _, err := eng.Process(&p); err != nil {
			return 0, err
		}
	}
	after := liveHeap()
	pending := eng.Stats().Pending
	runtime.KeepAlive(eng)
	if pending != residentFlows {
		return 0, fmt.Errorf("resident measurement: %d of %d flows pending", pending, residentFlows)
	}
	if after < before {
		return 0, nil
	}
	return float64(after-before) / float64(pending), nil
}
