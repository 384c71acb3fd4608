package flow

import (
	"container/list"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
	"time"

	"iustitia/internal/corpus"
	"iustitia/internal/packet"
)

// testID is a synthetic flow ID: cheaper than hashing a tuple when a test
// wants a million distinct ones.
func testID(n uint64) ID {
	var id ID
	binary.BigEndian.PutUint64(id[:8], n)
	binary.BigEndian.PutUint64(id[8:16], ^n)
	return id
}

// TestRecencyListMatchesOracle drives the table's intrusive recency list —
// admit, touch, evict, retire, with records going round the free list —
// against container/list, the structure it replaced, and compares the whole
// order, both link directions and the map after every operation.
func TestRecencyListMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		e, err := NewEngine(EngineConfig{BufferSize: 64, Classifier: firstByteClassifier()})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		oracle := list.New() // front = least recently active
		elems := map[ID]*list.Element{}
		var live []ID
		next := uint64(0)
		forget := func(id ID) {
			oracle.Remove(elems[id])
			delete(elems, id)
			for i, l := range live {
				if l == id {
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					break
				}
			}
		}
		e.mu.Lock()
		for op := 0; op < 3000; op++ {
			switch r := rng.Intn(10); {
			case r < 4 || len(live) == 0: // admit
				next++
				id := testID(uint64(seed)<<32 | next)
				fl := e.table.newPending(accumulator{spec: e.acc}, flowProgress{})
				if fl.prev != nil || fl.next != nil || fl.acc.hasData() {
					t.Fatalf("seed %d op %d: newPending returned a record still linked or holding data", seed, op)
				}
				fl.acc.write([]byte("payload that makes the record worth recycling"))
				e.admitLocked(id, fl)
				elems[id] = oracle.PushBack(id)
				live = append(live, id)
			case r < 7: // touch
				id := live[rng.Intn(len(live))]
				e.table.touch(e.table.pend[id])
				oracle.MoveToBack(elems[id])
			case r < 8: // evict the least recently active
				e.evictOneLocked(time.Duration(op))
				forget(oracle.Front().Value.(ID))
			default: // retire an arbitrary flow
				id := live[rng.Intn(len(live))]
				e.dropLocked(id, e.table.pend[id])
				forget(id)
			}

			if len(e.table.pend) != oracle.Len() {
				t.Fatalf("seed %d op %d: %d pending flows, oracle has %d", seed, op, len(e.table.pend), oracle.Len())
			}
			var prev *pending
			fl := e.table.oldest
			for el := oracle.Front(); el != nil; el = el.Next() {
				if fl == nil {
					t.Fatalf("seed %d op %d: list ends before the oracle does", seed, op)
				}
				if fl.id != el.Value.(ID) || fl.prev != prev || e.table.pend[fl.id] != fl {
					t.Fatalf("seed %d op %d: list diverges from the oracle at %x", seed, op, fl.id[:8])
				}
				prev, fl = fl, fl.next
			}
			if fl != nil || e.table.newest != prev {
				t.Fatalf("seed %d op %d: list runs past the oracle's end", seed, op)
			}
		}
		e.mu.Unlock()
		if st := e.Stats(); st.Admitted != st.Dropped+st.Pending || st.Pending != oracle.Len() {
			t.Errorf("seed %d: conservation: %+v with %d flows live", seed, st, oracle.Len())
		}
	}
}

// freeListLen walks the free list.
func freeListLen(e *Engine) (n, pinned int) {
	for fl := e.table.free; fl != nil; fl = fl.next {
		n++
		pinned += fl.pinned()
	}
	return n, pinned
}

// TestFreeListIsBounded retires a burst of flows at once: the free list
// keeps records with their buffers up to maxFreeBytes and no further, its
// running tally matches what it holds, the next flows reuse those records
// without allocating, and a buffer too big for the bound is never kept.
func TestFreeListIsBounded(t *testing.T) {
	const b, burst = 1024, 2000
	e, err := NewEngine(EngineConfig{BufferSize: b, Classifier: firstByteClassifier(), LabelCap: -1})
	if err != nil {
		t.Fatal(err)
	}
	half := string(make([]byte, b/2))
	for i := 0; i < burst; i++ {
		if _, err := e.Process(dataPacket(tuple(uint16(i), packet.UDP), time.Duration(i), half)); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := freeListLen(e); n != 0 || e.Stats().Pending != burst {
		t.Fatalf("before the burst retires: %d free records, %d pending", n, e.Stats().Pending)
	}
	if _, err := e.FlushAll(time.Hour); err != nil {
		t.Fatal(err)
	}
	n, pinned := freeListLen(e)
	if pinned != e.table.freeBytes || pinned > maxFreeBytes {
		t.Errorf("free list pins %d B (tally %d), bound %d", pinned, e.table.freeBytes, maxFreeBytes)
	}
	if n == 0 || n >= burst || pinned < maxFreeBytes-(b+512) {
		t.Errorf("free list kept %d of %d retired records (%d B): want it filled to the bound and no further", n, burst, pinned)
	}

	if !raceEnabled {
		// A flow that arrives, fills its buffer in two packets and retires
		// costs the table nothing while recycled records last.
		p1 := dataPacket(tuple(1, packet.TCP), 2*time.Hour, half)
		p2 := dataPacket(tuple(1, packet.TCP), 2*time.Hour, half)
		fin := &packet.Packet{Tuple: p1.Tuple, Time: 2 * time.Hour, Flags: packet.FlagFIN}
		allocs := testing.AllocsPerRun(20, func() {
			e.Process(p1)
			e.Process(p2)
			e.Process(fin) // closes the CDB record, so the next round is a new flow again
		})
		// The CDB's own bookkeeping (records map, scan ring, reinsertion set)
		// may still grow; the two table allocations per flow may not come back.
		if allocs >= 2 {
			t.Errorf("%.1f allocs per recycled flow, want the pending record and its buffer reused", allocs)
		}
	}

	// A flow flushed on a partial buffer gives no sample, so its record
	// retires with the buffer — here one too big for the bound.
	big, err := NewEngine(EngineConfig{BufferSize: 2 * maxFreeBytes, Classifier: firstByteClassifier()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := big.Process(dataPacket(tuple(9, packet.UDP), 0, string(make([]byte, maxFreeBytes)))); err != nil {
		t.Fatal(err)
	}
	if _, err := big.FlushAll(time.Hour); err != nil {
		t.Fatal(err)
	}
	if n, _ := freeListLen(big); n != 0 || big.table.freeBytes != 0 || big.Stats().Classified != 1 {
		t.Errorf("a %d-byte buffer was kept on the free list (%d records, %d B)", maxFreeBytes, n, big.table.freeBytes)
	}
}

// TestCDBReinsertionMemoryIsBounded: at serve's default (no MaxRecords
// cap) the first-insertion memory used to gain one ID per flow for ever.
// A million flows that come and go must leave it bounded by the purge
// window, while a flow reclassified inside the window still counts.
func TestCDBReinsertionMemoryIsBounded(t *testing.T) {
	c := NewCDB(CDBConfig{PurgeOnClose: true, PurgeInactive: true, N: 4})
	bound := 8 * c.cfg.PurgeEvery
	peak := 0
	for i := uint64(0); i < 1_000_000; i++ {
		id := testID(i)
		c.Insert(id, corpus.Text, time.Duration(i))
		c.Close(id)
		peak = max(peak, len(c.reinsertedFlows))
	}
	if peak > bound {
		t.Errorf("first-insertion memory peaked at %d IDs, bound %d", peak, bound)
	}
	if got := c.Stats().Reinsertions; got != 0 {
		t.Errorf("%d reinsertions among distinct flows", got)
	}
	c.Insert(testID(999_999), corpus.Text, time.Hour)
	if got := c.Stats().Reinsertions; got != 1 {
		t.Errorf("reinsertions = %d after reclassifying a recent flow, want 1", got)
	}

	// A live table larger than the purge window raises the bound with it,
	// so a big steady population is not forgotten eight windows in.
	c = NewCDB(CDBConfig{PurgeEvery: 10})
	for i := uint64(0); i < 1000; i++ {
		c.Insert(testID(i), corpus.Text, 0)
	}
	if len(c.reinsertedFlows) != 1000 {
		t.Errorf("%d IDs remembered for 1000 live records", len(c.reinsertedFlows))
	}
}

// TestSampleBuffersAreCopies reads the sample ring from one goroutine while
// another churns flows through the engine, refilling recycled buffers the
// ring swapped out. Run under -race: a ring that handed out its own slices
// would be read here while a later flow writes them.
func TestSampleBuffersAreCopies(t *testing.T) {
	const b = 64
	e, err := NewEngine(EngineConfig{BufferSize: b, Classifier: firstByteClassifier(), LabelCap: -1})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		payload := make([]byte, b)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for j := range payload {
				payload[j] = byte(i)
			}
			p := &packet.Packet{Tuple: tuple(uint16(i), packet.UDP), Time: time.Duration(i), Payload: payload}
			if _, err := e.ProcessID(testID(uint64(i)), p); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	deadline := time.Now().Add(200 * time.Millisecond)
	full := 0
	for time.Now().Before(deadline) || full == 0 {
		for _, buf := range e.SampleBuffers() {
			if len(buf) != b {
				t.Fatalf("sample of %d bytes, want a full %d-byte buffer", len(buf), b)
			}
			for _, c := range buf[1:] {
				if c != buf[0] {
					t.Fatalf("sample mixes two flows' payloads: % x", buf)
				}
			}
			full++
		}
	}
	close(stop)
	wg.Wait()
	if got := len(e.SampleBuffers()); got != sampleRingSize {
		t.Errorf("ring holds %d samples after the churn, want %d", got, sampleRingSize)
	}
}
