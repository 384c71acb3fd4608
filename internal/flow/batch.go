package flow

import (
	"errors"

	"iustitia/internal/packet"
)

// This file is the batched front end of ParallelEngine: ProcessBatch
// partitions a packet batch across shards in one pass and runs each
// shard's slice inline.
//
// Ordering: all packets of one flow hash to one shard and a batch's
// per-shard slice preserves submission order, so per-flow processing order
// is exactly submission order, as long as one flow's packets are submitted
// by one goroutine (the same contract Process has always had; the ingest
// server routes flows to workers by flow ID for precisely this reason).
//
// Conservation: every packet of a batch reaches Engine.ProcessID exactly
// once, so the §6 law Admitted == Classified + Fallback + Dropped + Pending
// and the transport law Received == Admitted + Quarantined + Shed keep
// holding.

// batchEntry is one routed packet: the flow ID is computed once during
// partitioning and reused by the shard. The packet is held by value so the
// caller may recycle its own packet structs as soon as ProcessBatch
// returns.
type batchEntry struct {
	id  ID
	pkt packet.Packet
}

// batchScratch is the pooled partition buffer of one in-flight batch: one
// append slice per shard.
type batchScratch struct {
	perShard [][]batchEntry
}

// getScratch returns a partition buffer shaped for this engine's shard
// count.
func (pe *ParallelEngine) getScratch() *batchScratch {
	sc, _ := pe.scratch.Get().(*batchScratch)
	if sc == nil || len(sc.perShard) != len(pe.shards) {
		sc = &batchScratch{perShard: make([][]batchEntry, len(pe.shards))}
	}
	return sc
}

// putScratch empties the partition buffer and returns it to the pool.
func (pe *ParallelEngine) putScratch(sc *batchScratch) {
	for i := range sc.perShard {
		sc.perShard[i] = sc.perShard[i][:0]
	}
	pe.scratch.Put(sc)
}

// ProcessBatch routes every packet of batch to its flow's shard in a
// single partition pass (one SHA-1 per packet, total), processes each
// shard's slice inline, and returns the count of failed packets with
// their errors joined.
//
// Packets of one flow must be submitted from one goroutine for per-flow
// order to be defined, exactly as with Process. The packet structs and
// their payload bytes may be reused once ProcessBatch returns.
func (pe *ParallelEngine) ProcessBatch(batch []*packet.Packet) (int, error) {
	if len(batch) == 0 {
		return 0, nil
	}
	sc := pe.getScratch()
	defer pe.putScratch(sc)
	for _, p := range batch {
		if p == nil {
			return len(batch), errors.New("flow: nil packet in batch")
		}
		id := IDOf(p.Tuple)
		s := pe.shardIndex(id)
		sc.perShard[s] = append(sc.perShard[s], batchEntry{id: id, pkt: *p})
	}
	var (
		failed int
		errs   []error
	)
	for s, entries := range sc.perShard {
		shard := pe.shards[s]
		for i := range entries {
			if _, err := shard.ProcessID(entries[i].id, &entries[i].pkt); err != nil {
				failed++
				errs = append(errs, err)
			}
		}
	}
	return failed, errors.Join(errs...)
}
