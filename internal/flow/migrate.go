package flow

import (
	"fmt"
	"sort"
	"time"

	"iustitia/internal/corpus"
	"iustitia/internal/persist"
)

// This file is the engine's live-migration surface, the payload behind
// persist.KindMigration frames: a *filtered* export of flow state — the
// pending (mid-buffer) flows matched by a predicate plus their
// classification-database records — that a losing node hands to the
// gaining node when a consistent-hash arc moves between live nodes.
// Unlike a checkpoint (§7), a migration export *removes* the matched
// state from the source engine: after the handoff exactly one node holds
// each flow, so mid-flow verdicts and inactivity (λ) estimates survive a
// rebalance instead of being re-derived from a cold start.
//
// Accounting follows the checkpoint convention: removing a pending flow
// decrements the source's Admitted (mirroring how checkpoints exclude
// pending flows from exported Admitted) and installing it increments the
// destination's, so Admitted == Classified + Fallback + Dropped + Pending
// holds on both engines throughout. MigratedIn/MigratedOut count the
// moved flows for the cluster soak's assertions.

// pendingExport is one mid-buffer flow in wire-portable form. buf, sketch
// and seen are the flow's accumulator snapshot (see accumulator.snapshot).
type pendingExport struct {
	id ID
	flowProgress
	seen   int
	buf    []byte
	sketch []byte
}

// flowExport is a decoded migration payload: pending flows plus CDB
// records, both filtered by the same predicate.
type flowExport struct {
	pendings []pendingExport
	records  []cdbEntry
}

const (
	pendFlagCheckedHdr = 1 << 0
	pendFlagHeaderCont = 1 << 1
)

// encodeFlowExport serializes a migration payload. Hand it to
// persist.Encode / persist.SaveFile under persist.KindMigration.
func encodeFlowExport(fx flowExport) []byte {
	var enc persist.Encoder
	enc.U32(uint32(corpus.NumClasses))
	enc.U32(uint32(len(fx.pendings)))
	for _, p := range fx.pendings {
		enc.Raw(p.id[:])
		enc.I64(int64(p.firstSeen))
		enc.I64(int64(p.lastSeen))
		enc.I64(int64(p.packets))
		enc.I64(int64(p.skipLeft))
		var flags uint8
		if p.checkedHdr {
			flags |= pendFlagCheckedHdr
		}
		if p.headerCont {
			flags |= pendFlagHeaderCont
		}
		enc.U8(flags)
		enc.I64(int64(p.headerSpent))
		enc.I64(int64(p.seen))
		enc.Blob(p.buf)
		enc.Blob(p.headerTail)
		enc.Blob(p.sketch)
	}
	enc.Blob(encodeCDBEntries(fx.records))
	return enc.Bytes()
}

// pendingExportWire is the fixed-size portion of one encoded pending
// flow, used to validate the declared count before allocating.
const pendingExportWire = 20 + 5*8 + 1 + 8 + 3*4

// decodeFlowExport parses a migration payload. Hostile input returns an
// error wrapping persist.ErrCorrupt — never a panic.
func decodeFlowExport(data []byte) (flowExport, error) {
	var fx flowExport
	d := persist.NewDecoder(data)
	nClasses := int(d.U32())
	if d.Err() == nil && nClasses != corpus.NumClasses {
		d.Fail("migration payload has %d classes, engine has %d", nClasses, corpus.NumClasses)
	}
	n := d.Count(pendingExportWire)
	if n >= 0 {
		fx.pendings = make([]pendingExport, 0, n)
		for i := 0; i < n; i++ {
			var p pendingExport
			copy(p.id[:], d.Take(len(p.id)))
			p.firstSeen = time.Duration(d.I64())
			p.lastSeen = time.Duration(d.I64())
			p.packets = int(d.I64())
			p.skipLeft = int(d.I64())
			flags := d.U8()
			p.checkedHdr = flags&pendFlagCheckedHdr != 0
			p.headerCont = flags&pendFlagHeaderCont != 0
			p.headerSpent = int(d.I64())
			p.seen = int(d.I64())
			p.buf = append([]byte(nil), d.Blob()...)
			p.headerTail = append([]byte(nil), d.Blob()...)
			p.sketch = append([]byte(nil), d.Blob()...)
			if d.Err() != nil {
				break
			}
			if p.firstSeen < 0 || p.lastSeen < 0 || p.packets < 0 || p.headerSpent < 0 || p.seen < 0 {
				d.Fail("pending flow %d has negative time or count", i)
				break
			}
			fx.pendings = append(fx.pendings, p)
		}
	}
	blob := d.Blob()
	if err := d.Finish(); err != nil {
		return flowExport{}, fmt.Errorf("flow: migration import: %w", err)
	}
	records, err := decodeCDBEntries(blob)
	if err != nil {
		return flowExport{}, fmt.Errorf("flow: migration import: %w", err)
	}
	fx.records = records
	return fx, nil
}

// takeFlows removes every pending flow and CDB record whose ID matches
// pred and returns them (gatherFlows orders the merged result). The
// removed pending flows decrement admitted (the checkpoint convention) and
// count as MigratedOut.
func (e *Engine) takeFlows(pred func(ID) bool) flowExport {
	e.mu.Lock()
	defer e.mu.Unlock()
	var fx flowExport
	for id, fl := range e.table.pend {
		if !pred(id) {
			continue
		}
		fx.pendings = append(fx.pendings, exportPending(id, fl))
		e.retireLocked(id, fl)
		e.table.recycle(fl)
		e.sink.ec.admitted.Add(-1)
		e.sink.ec.migratedOut.Add(1)
	}
	fx.records = e.table.cdb.takeEntries(pred)
	// A migrated verdict must be readable on exactly one node: drop the
	// moved flows from the local ground-truth map so RecordedLabel stops
	// answering for them here.
	for _, ent := range fx.records {
		delete(e.sink.labelled, ent.id)
	}
	return fx
}

func exportPending(id ID, fl *pending) pendingExport {
	p := pendingExport{id: id, flowProgress: fl.flowProgress}
	p.headerTail = append([]byte(nil), fl.headerTail...)
	p.buf, p.sketch, p.seen = fl.acc.snapshot()
	return p
}

func sortPendings(ps []pendingExport) {
	sort.Slice(ps, func(i, j int) bool { return string(ps[i].id[:]) < string(ps[j].id[:]) })
}

// snapshotPendings copies every pending flow without removing anything —
// the node-checkpoint variant, where the CDB already travels inside the
// engine checkpoint and the pending flows ride alongside so a SIGKILLed
// node's mid-buffer flows survive the restart.
func (e *Engine) snapshotPendings() flowExport {
	e.mu.Lock()
	defer e.mu.Unlock()
	var fx flowExport
	for id, fl := range e.table.pend {
		fx.pendings = append(fx.pendings, exportPending(id, fl))
	}
	return fx
}

// installFlows adds a decoded export to this engine. Installed pending
// flows increment admitted (balancing takeFlows/checkpoint accounting);
// when migration is true they also count as MigratedIn. A pending flow
// already present locally is skipped — the local copy is newer. Returns
// how many pending flows plus records landed.
func (e *Engine) installFlows(fx flowExport, migration bool) int {
	e.mu.Lock()
	moved := 0
	for _, p := range fx.pendings {
		if _, exists := e.table.pend[p.id]; exists {
			continue
		}
		if e.table.full() {
			e.evictOneLocked(p.lastSeen)
		}
		fl := e.table.newPending(e.acc.restore(p.buf, p.sketch), p.flowProgress)
		e.admitLocked(p.id, fl)
		if migration {
			e.sink.ec.migratedIn.Add(1)
		}
		moved++
		// Guard against a buffer-size mismatch between nodes: a flow
		// already at or over this engine's b classifies immediately, since
		// no later packet would trigger it.
		if fl.acc.ready() {
			_, _ = e.classifyLocked(p.id, fl, p.lastSeen)
		}
	}
	e.mu.Unlock()
	if len(fx.records) > 0 {
		moved += e.table.cdb.installEntries(fx.records)
		if migration {
			e.sink.ec.migratedIn.Add(int64(len(fx.records)))
		}
	}
	return moved
}

// ExportFlows removes and serializes every matching pending flow and CDB
// record across all shards into one flat payload — the losing side of a
// flow-table migration. The payload is not
// shard-pinned: ImportFlows re-routes every flow by ID, so source and
// destination may run different shard counts.
func (pe *ParallelEngine) ExportFlows(pred func(ID) bool) []byte {
	return pe.gatherFlows(func(e *Engine) flowExport { return e.takeFlows(pred) })
}

// gatherFlows merges every shard's export into one deterministically
// ordered payload.
func (pe *ParallelEngine) gatherFlows(export func(*Engine) flowExport) []byte {
	var all flowExport
	for _, shard := range pe.shards {
		fx := export(shard)
		all.pendings = append(all.pendings, fx.pendings...)
		all.records = append(all.records, fx.records...)
	}
	sortPendings(all.pendings)
	sortCDBEntries(all.records)
	return encodeFlowExport(all)
}

// ImportFlows installs a payload written by ExportFlows — the gaining
// side of a flow-table migration — routing each flow to its shard by ID.
// It returns how many pending flows plus CDB records landed. Hostile input
// returns an error wrapping persist.ErrCorrupt and leaves the engine
// unchanged.
func (pe *ParallelEngine) ImportFlows(data []byte) (int, error) {
	return pe.importRouted(data, true)
}

// importRouted decodes a flow export and installs every flow on the shard
// its ID maps to.
func (pe *ParallelEngine) importRouted(data []byte, migration bool) (int, error) {
	fx, err := decodeFlowExport(data)
	if err != nil {
		return 0, err
	}
	perShard := make([]flowExport, len(pe.shards))
	for _, p := range fx.pendings {
		i := pe.shardIndex(p.id)
		perShard[i].pendings = append(perShard[i].pendings, p)
	}
	for _, ent := range fx.records {
		i := pe.shardIndex(ent.id)
		perShard[i].records = append(perShard[i].records, ent)
	}
	moved := 0
	for i, shard := range pe.shards {
		moved += shard.installFlows(perShard[i], migration)
	}
	return moved, nil
}

// ExportPending snapshots every shard's pending flows without removing
// them — the in-flight section of a node checkpoint (the CDB and
// counters travel in the engine checkpoint alongside).
func (pe *ParallelEngine) ExportPending() []byte {
	return pe.gatherFlows((*Engine).snapshotPendings)
}

// ImportPending installs a payload written by ExportPending into a
// freshly restored engine. Unlike ImportFlows it does not count the
// flows as migrated: they never left the node, they survived its crash.
func (pe *ParallelEngine) ImportPending(data []byte) (int, error) {
	return pe.importRouted(data, false)
}
