package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"
)

// layerTable is the isolated half of the per-layer cost table: each row
// times one public function of one layer on the workload's own inputs,
// outside the running system, min of isolateRepeats with the coefficient
// of variation kept beside it.
type layerTable struct {
	values map[string]float64
	cv     map[string]float64
}

const isolateRepeats = 5

// timeRow runs body isolateRepeats times; body performs ops operations
// (prepare, untimed, runs before each repeat). The row is the minimum
// ns/op.
func (lt *layerTable) timeRow(name string, ops int, prepare, body func()) {
	var perOp []float64
	for r := 0; r < isolateRepeats; r++ {
		if prepare != nil {
			prepare()
		}
		t0 := nowNs()
		body()
		perOp = append(perOp, float64(nowNs()-t0)/float64(ops))
	}
	lt.values[name], lt.cv[name] = minAndCV(perOp)
}

// allocsOf returns the heap objects body allocates, per op.
func allocsOf(ops int, body func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	body()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(ops)
}

// liveHeap is the heap still reachable after a forced collection. Two
// collections: memory held only by finalisers (a shut-down system's
// connections) is released by the second.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// stubClassifier answers instantly, so engine rows measure the engine.
type stubClassifier struct{ widths []int }

func (stubClassifier) Classify([]byte) (Class, error)          { return 0, nil }
func (s stubClassifier) FeatureWidths() []int                  { return s.widths }
func (stubClassifier) ClassifyVector([]float64) (Class, error) { return 0, nil }

const layerPackets = 16384

// measureLayers fills the isolated rows for e's workload.
func measureLayers(e *env) (*layerTable, error) {
	lt := &layerTable{values: map[string]float64{}, cv: map[string]float64{}}
	w := e.w
	spec := w.Spec
	spec.Routed = false

	// The workload's own packets: the head of its stream.
	g := newGenerator(w, e.descs, e.seed, e.tick())
	pkts := make([]Packet, 0, layerPackets)
	preVerdict := make([]bool, 0, layerPackets) // packet precedes or is its flow's trigger
	flowPos := map[uint64]int{}
	for len(pkts) < layerPackets {
		var p Packet
		meta, ok := g.next(&p)
		if !ok {
			break
		}
		pos := flowPos[meta.flowSeq]
		flowPos[meta.flowSeq] = pos + 1
		pkts = append(pkts, p)
		preVerdict = append(preVerdict, len(p.Payload) > 0 && pos <= e.descs[meta.desc].trigger)
	}
	n := len(pkts)

	// packet: wire codec.
	var buf []byte
	lt.timeRow("packet.wire_encode_ns", n, nil, func() {
		for i := range pkts {
			buf, _ = appendWire(buf[:0], &pkts[i])
		}
	})
	wires := make([][]byte, n)
	for i := range pkts {
		wires[i], _ = appendWire(nil, &pkts[i])
	}
	lt.timeRow("packet.wire_decode_ns", n, nil, func() {
		for i := range wires {
			if _, err := decodeWire(wires[i]); err != nil {
				panic(err)
			}
		}
	})

	// ingest: version-2 frame codec over an in-memory reader.
	lt.timeRow("ingest.frame_encode_ns", n, nil, func() {
		for i := range pkts {
			buf, _ = appendFrameSeq(buf[:0], &pkts[i], uint64(i+1))
		}
	})
	var frames []byte
	for i := range pkts {
		frames, _ = appendFrameSeq(frames, &pkts[i], uint64(i+1))
	}
	decodeAll := func() {
		fr := newFrameReader(bytes.NewReader(frames), 0, nil)
		for i := 0; i < n; i++ {
			if _, err := fr.Next(); err != nil {
				panic(err)
			}
		}
	}
	lt.timeRow("ingest.frame_decode_ns", n, nil, decodeAll)
	lt.values["ingest.frame_decode_allocs"] = allocsOf(n, decodeAll)

	// flow: flow ID and the CDB on its own.
	tuples := make([]FiveTuple, layerPackets)
	for i := range tuples {
		tuples[i] = tupleFor(e.seed^0x1a7e5, uint64(i), TCP)
	}
	ids := make([]FlowID, len(tuples))
	lt.timeRow("flow.idof_ns", len(tuples), nil, func() {
		for i, t := range tuples {
			ids[i] = flowIDOf(t)
		}
	})
	strangers := make([]FlowID, len(tuples))
	for i := range strangers {
		strangers[i] = flowIDOf(tupleFor(e.seed^0x57a9, uint64(i), UDP))
	}
	var cdb *CDB
	tick := e.tick()
	lt.timeRow("flow.cdb_insert_ns", len(ids), func() { cdb = newServeCDB() }, func() {
		for i, id := range ids {
			cdb.Insert(id, Class(i%NumClasses), time.Duration(i)*tick)
		}
	})
	cdb = newServeCDB()
	insertNs := make([]int64, len(ids))
	for i, id := range ids {
		t0 := nowNs()
		cdb.Insert(id, Class(i%NumClasses), time.Duration(i)*tick)
		insertNs[i] = nowNs() - t0
	}
	lt.values["flow.cdb_insert_p99_ns"] = float64(tailPercentile(sortedCopy(insertNs), 99))
	at := time.Duration(len(ids)) * tick
	lt.timeRow("flow.cdb_lookup_hit_ns", len(ids), nil, func() {
		for _, id := range ids {
			cdb.Lookup(id, at)
		}
	})
	lt.timeRow("flow.cdb_lookup_miss_ns", len(strangers), nil, func() {
		for _, id := range strangers {
			cdb.Lookup(id, at)
		}
	})
	lt.timeRow("flow.cdb_close_ns", len(ids), func() {
		cdb = newServeCDB()
		for i, id := range ids {
			cdb.Insert(id, 0, time.Duration(i)*tick)
		}
	}, func() {
		for _, id := range ids {
			cdb.Close(id)
		}
	})
	const records = 1 << 16
	before := liveHeap()
	cdb = newServeCDB()
	for i := 0; i < records; i++ {
		cdb.Insert(flowIDOf(tupleFor(e.seed, uint64(i), TCP)), 0, time.Duration(i)*tick)
	}
	after := liveHeap()
	runtime.KeepAlive(cdb)
	if after > before {
		lt.values["flow.resident_bytes_per_cdb_record"] = float64(after-before) / records
	}
	cdb = nil

	// flow: the engine around a stub classifier. Packets up to each
	// flow's trigger are the pre-verdict path (pending insert, header
	// strip, buffer or sketch write, CDB insert); afterwards every data
	// packet of those flows is the CDB-hit path.
	stub := stubClassifier{widths: w.Widths}
	var pre, hits []*Packet
	for i := range pkts {
		if preVerdict[i] {
			pre = append(pre, &pkts[i])
		} else if len(pkts[i].Payload) > 0 {
			hits = append(hits, &pkts[i])
		}
	}
	var engErr error
	process := func(eng *Engine, ps []*Packet) {
		for _, p := range ps {
			if _, err := eng.Process(p); err != nil {
				engErr = err
			}
		}
	}
	stubEngine := func() *Engine {
		eng, err := newEngine(spec, stub, serveShards)
		if err != nil {
			engErr = err
		}
		return eng
	}
	var eng *Engine
	lt.timeRow("flow.engine_newflow_ns", len(pre), func() { eng = stubEngine() }, func() { process(eng, pre) })
	if len(hits) == 0 {
		hits = pre[:1] // a workload whose every packet precedes a verdict
	}
	lt.timeRow("flow.engine_hit_ns", len(hits), nil, func() { process(eng, hits) })
	half := spec.BufferSize / 2
	lt.timeRow("flow.flush_ns_per_flow", residentFlows, func() {
		eng = stubEngine()
		p := Packet{Flags: FlagACK | FlagPSH, Payload: e.encrypted()[:half]}
		for i := 0; i < residentFlows; i++ {
			p.Tuple = tuples[i]
			eng.Process(&p)
		}
	}, func() {
		if flushed, err := eng.FlushAll(time.Minute); err != nil || flushed != residentFlows {
			engErr = fmt.Errorf("flush: %d of %d flows, %v", flushed, residentFlows, err)
		}
	})
	all := make([]*Packet, n)
	for i := range pkts {
		all[i] = &pkts[i]
	}
	realEngine := func() {
		var err error
		if eng, err = newEngine(spec, e.model, serveShards); err != nil {
			engErr = err
		}
	}
	lt.timeRow("flow.process_ns_per_packet", n, realEngine, func() { process(eng, all) })
	realEngine()
	lt.values["flow.process_allocs_per_packet"] = allocsOf(n, func() { process(eng, all) })
	if engErr != nil {
		return nil, fmt.Errorf("layer table: %w", engErr)
	}

	// appheader.
	hdr := append(httpHeader(rand.New(rand.NewSource(1)), 4096), e.encrypted()[:64]...)
	plain := e.encrypted()[:96]
	const strips = 1 << 15
	lt.timeRow("appheader.strip_hit_ns", strips, nil, func() {
		for i := 0; i < strips; i++ {
			stripHeader(hdr)
		}
	})
	lt.timeRow("appheader.strip_miss_ns", strips, nil, func() {
		for i := 0; i < strips; i++ {
			stripHeader(plain)
		}
	})
	stripped := 0
	for i := range e.descs {
		if _, known := stripHeader(e.descs[i].payload(0)); known {
			stripped++
		}
	}
	lt.values["appheader.stripped_share"] = float64(stripped) / float64(len(e.descs))

	// entropy, entest, core: fixed 32 B and 1 KiB inputs from the training
	// pool (the workload's own pool files may be shorter than 1 KiB).
	train, err := newCorpusPool(trainSeed, trainPerClass, trainFileSize)
	if err != nil {
		return nil, err
	}
	small, err := trainModel(train, widthsPhiPrimeCART, 32, false)
	if err != nil {
		return nil, err
	}
	deep, err := trainModel(train, widthsAll, 1024, false)
	if err != nil {
		return nil, err
	}
	dagsvm, err := trainModel(train[:120], widthsPhiPrimeCART, 32, true)
	if err != nil {
		return nil, err
	}
	const small32, deep1k = 1 << 13, 1 << 9
	lt.timeRow("entropy.vector_32b_ns", small32, nil, func() {
		for i := 0; i < small32; i++ {
			vectorAt(train[i%len(train)].Data[:32], widthsPhiPrimeCART)
		}
	})
	vector1k := func() {
		for i := 0; i < deep1k; i++ {
			vectorAt(train[i%len(train)].Data[:1024], widthsAll)
		}
	}
	lt.timeRow("entropy.vector_1k_ns", deep1k, nil, vector1k)
	lt.values["entropy.vector_1k_allocs"] = allocsOf(deep1k, vector1k)

	sv, err := newStreamVector(widthsAll, 1024)
	if err != nil {
		return nil, err
	}
	lt.timeRow("entest.stream_write_ns_per_byte", deep1k*1024, nil, func() {
		for i := 0; i < deep1k; i++ {
			sv.Reset()
			sv.Write(train[i%len(train)].Data[:1024])
		}
	})
	lt.timeRow("entest.stream_vector_ns", deep1k, nil, func() {
		for i := 0; i < deep1k; i++ {
			sv.Vector()
		}
	})
	const sketches = 256
	before = liveHeap()
	held := make([]any, sketches)
	for i := range held {
		s, _ := newStreamVector(widthsAll, 1024)
		s.Write(train[i%len(train)].Data[:512])
		held[i] = s
	}
	after = liveHeap()
	runtime.KeepAlive(held)
	if after > before {
		lt.values["entest.sketch_bytes_per_flow"] = float64(after-before) / sketches
	}

	lt.timeRow("core.classify_32b_ns", small32, nil, func() {
		for i := 0; i < small32; i++ {
			small.Classify(train[i%len(train)].Data[:32])
		}
	})
	lt.timeRow("core.classify_1k_ns", deep1k, nil, func() {
		for i := 0; i < deep1k; i++ {
			deep.Classify(train[i%len(train)].Data[:1024])
		}
	})
	vecs := make([][]float64, len(train))
	for i := range vecs {
		vecs[i], _ = vectorAt(train[i].Data[:32], widthsPhiPrimeCART)
	}
	lt.timeRow("core.classify_vector_cart_ns", small32, nil, func() {
		for i := 0; i < small32; i++ {
			small.ClassifyVector(vecs[i%len(vecs)])
		}
	})
	lt.timeRow("core.classify_vector_dagsvm_ns", small32, nil, func() {
		for i := 0; i < small32; i++ {
			dagsvm.ClassifyVector(vecs[i%len(vecs)])
		}
	})

	// cluster: ring lookup, flow-ID hash included (the router hashes too).
	ring, err := newRing("a", "b")
	if err != nil {
		return nil, err
	}
	lt.timeRow("cluster.ring_owner_ns", len(tuples), nil, func() {
		for _, t := range tuples {
			ring.Owner(pointOfTuple(t))
		}
	})
	return lt, nil
}

// encrypted returns a pool file of raw ciphertext, which no
// application-header detector matches.
func (e *env) encrypted() []byte {
	for _, f := range e.pool {
		if f.Kind == "aes" {
			return f.Data
		}
	}
	return e.pool[0].Data
}
