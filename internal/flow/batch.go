package flow

import (
	"errors"

	"iustitia/internal/packet"
)

// This file is the batched front end of ParallelEngine.
//
// Ordering: ProcessBatch walks the batch in submission order and all
// packets of one flow hash to one shard, so per-flow processing order is
// exactly submission order, as long as one flow's packets are submitted by
// one goroutine (the same contract Process has always had; the ingest
// server routes flows to workers by flow ID for precisely this reason).
//
// Conservation: every packet of a batch reaches Engine.ProcessID exactly
// once, so the §6 law Admitted == Classified + Fallback + Dropped + Pending
// and the transport law Received == Admitted + Quarantined + Shed keep
// holding.

// Routed is one packet with its flow ID already computed — the unit the
// ingest server hands the engine, so the tuple is hashed once per packet
// per process. ID must be IDOf(Pkt.Tuple).
type Routed struct {
	ID  ID
	Pkt packet.Packet
}

// ProcessBatch runs every packet of batch, in order, on its flow's shard
// and returns the count of failed packets with their errors joined. There
// is no partition step: a caller that routes flows to goroutines by
// ID mod n (ingest's workers) already confines each goroutine to the
// shards of its own residue classes whenever n divides the shard count.
//
// Packets of one flow must be submitted from one goroutine for per-flow
// order to be defined, exactly as with Process. The engine retains nothing
// of batch past the call — payload bytes it keeps are copied into the
// flow's own buffer — so Pkt.Payload may alias memory the caller reuses as
// soon as ProcessBatch returns.
func (pe *ParallelEngine) ProcessBatch(batch []Routed) (int, error) {
	var (
		failed int
		errs   []error
	)
	for i := range batch {
		r := &batch[i]
		if _, err := pe.shardFor(r.ID).ProcessID(r.ID, &r.Pkt); err != nil {
			failed++
			errs = append(errs, err)
		}
	}
	return failed, errors.Join(errs...)
}
