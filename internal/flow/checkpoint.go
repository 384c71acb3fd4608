package flow

import (
	"fmt"

	"iustitia/internal/corpus"
	"iustitia/internal/persist"
)

// This file is the engine's crash-recovery surface, the payload behind
// persist.KindCheckpoint snapshots: the governor counters plus a full
// CDB export. Restoring a checkpoint into a fresh engine makes already
// classified flows hit the CDB path again — no re-buffering, no
// re-classification — and keeps the PR-1 accounting invariant
// (Admitted == Classified + Fallback + Dropped + Pending) true across
// the restart. Pending buffers are deliberately not persisted: a flow
// that was mid-buffer when the process died simply re-admits itself
// when its next packet arrives, so exported Admitted excludes flows
// that were still pending.

// ExportCheckpoint serializes the engine's durable state: counters and
// the classification database. Frame it with persist.Encode or hand it
// to persist.SaveFile under persist.KindCheckpoint.
func (e *Engine) ExportCheckpoint() []byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.exportCheckpointLocked()
}

func (e *Engine) exportCheckpointLocked() []byte {
	// e.mu is held, so no counter moves while the snapshot is taken: Stats
	// reads a mutually consistent set, restored baselines included.
	s := e.Stats()
	// Pending flows are not persisted, so they must not count as admitted
	// in the snapshot or the conservation law breaks on resume.
	s.Admitted -= s.Pending
	var enc persist.Encoder
	enc.U32(uint32(corpus.NumClasses))
	for _, f := range checkpointFields(&s) {
		enc.I64(int64(*f))
	}
	enc.Blob(e.table.cdb.Export())
	return enc.Bytes()
}

// checkpointFields lists the counters a checkpoint carries, in wire order.
func checkpointFields(s *EngineStats) []*int {
	fields := make([]*int, 0, corpus.NumClasses+7)
	for i := range s.QueueCounts {
		fields = append(fields, &s.QueueCounts[i])
	}
	return append(fields, &s.Classified, &s.Admitted, &s.Shed, &s.Evicted, &s.Dropped, &s.Failed, &s.Fallback)
}

// ImportCheckpoint restores a checkpoint written by ExportCheckpoint
// into this engine: counters are added to the restored baselines
// reported by Stats, and the CDB records are imported (honouring
// MaxRecords). Hostile input returns an error wrapping
// persist.ErrCorrupt and leaves the engine unchanged.
func (e *Engine) ImportCheckpoint(data []byte) error {
	d := persist.NewDecoder(data)
	nClasses := int(d.U32())
	if d.Err() == nil && nClasses != corpus.NumClasses {
		d.Fail("checkpoint has %d classes, engine has %d", nClasses, corpus.NumClasses)
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("flow: checkpoint import: %w", err)
	}
	var s EngineStats
	for _, f := range checkpointFields(&s) {
		c := d.I64()
		if d.Err() == nil && c < 0 {
			d.Fail("negative checkpoint counter %d", c)
		}
		*f = int(c)
	}
	blob := d.Blob()
	if err := d.Finish(); err != nil {
		return fmt.Errorf("flow: checkpoint import: %w", err)
	}

	// Validate and import the CDB payload before touching engine state so
	// a corrupt checkpoint leaves the engine untouched.
	if err := e.table.cdb.Import(blob); err != nil {
		return fmt.Errorf("flow: checkpoint import: %w", err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	// The restored baseline is an immutable snapshot behind an atomic
	// pointer (so the lock-free Stats can fold it in); build the updated
	// copy and publish it whole.
	next := *e.sink.restored.Load()
	next.add(s)
	e.sink.restored.Store(&next)
	return nil
}

// maybeCheckpoint fires the configured OnCheckpoint hook when enough
// flows have been classified since the last snapshot. It is called
// outside the engine lock so the hook may call any engine method; the
// two fields it reads without the lock are immutable (see Engine.cfg).
func (e *Engine) maybeCheckpoint() {
	every, hook := e.cfg.CheckpointEvery, e.cfg.OnCheckpoint
	if hook == nil || every <= 0 {
		return
	}
	e.mu.Lock()
	if e.sink.sinceCkpt < every {
		e.mu.Unlock()
		return
	}
	e.sink.sinceCkpt = 0
	blob := e.exportCheckpointLocked()
	e.mu.Unlock()
	hook(blob)
}
