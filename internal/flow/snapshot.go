package flow

import (
	"fmt"
	"sort"
	"time"

	"iustitia/internal/corpus"
	"iustitia/internal/persist"
)

// This file is the CDB's durable codec, the payload behind
// persist.KindCDB snapshots: every live record — flow ID, label,
// last-seen, λ, classified-at — in a deterministic order. Import is
// hostile-input safe (bounds-checked, label-validated) and honours the
// database's MaxRecords cap: when a snapshot holds more records than the
// cap allows, the oldest-by-last-seen are dropped and counted in
// CDBStats.ImportDropped. The same record wire format carries the CDB
// section of a flow-table migration (migrate.go).

// cdbEntry pairs a record with its flow ID for codec and migration use.
type cdbEntry struct {
	id  ID
	rec cdbRecord
}

// sortCDBEntries orders entries by last-seen time, then flow ID — the
// deterministic export order.
func sortCDBEntries(all []cdbEntry) {
	sort.Slice(all, func(i, j int) bool {
		if all[i].rec.lastSeen != all[j].rec.lastSeen {
			return all[i].rec.lastSeen < all[j].rec.lastSeen
		}
		return string(all[i].id[:]) < string(all[j].id[:])
	})
}

// encodeCDBEntries serializes entries in the snapshot wire format. The
// caller supplies them already in deterministic order.
func encodeCDBEntries(all []cdbEntry) []byte {
	var e persist.Encoder
	e.U32(uint32(len(all)))
	for _, ent := range all {
		e.Raw(ent.id[:])
		e.U8(uint8(ent.rec.label))
		e.I64(int64(ent.rec.lastSeen))
		e.I64(int64(ent.rec.lambda))
		e.I64(int64(ent.rec.classifiedAt))
	}
	return e.Bytes()
}

// decodeCDBEntries parses and validates snapshot-format records. Hostile
// input returns an error wrapping persist.ErrCorrupt — never a panic.
func decodeCDBEntries(data []byte) ([]cdbEntry, error) {
	d := persist.NewDecoder(data)
	n := d.Count(cdbRecordWire)
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("flow: cdb import: %w", err)
	}
	incoming := make([]cdbEntry, n)
	for i := range incoming {
		var ent cdbEntry
		copy(ent.id[:], d.Take(len(ent.id)))
		label := d.U8()
		ent.rec.lastSeen = time.Duration(d.I64())
		ent.rec.lambda = time.Duration(d.I64())
		ent.rec.classifiedAt = time.Duration(d.I64())
		if d.Err() != nil {
			break
		}
		if label >= corpus.NumClasses {
			d.Fail("record %d has label %d, want < %d", i, label, corpus.NumClasses)
			break
		}
		if ent.rec.lastSeen < 0 || ent.rec.lambda < 0 || ent.rec.classifiedAt < 0 {
			d.Fail("record %d has negative time", i)
			break
		}
		ent.rec.label = corpus.Class(label)
		incoming[i] = ent
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("flow: cdb import: %w", err)
	}
	return incoming, nil
}

// Export serializes every live record. The output is deterministic:
// records are ordered by last-seen time, then by flow ID.
func (c *CDB) Export() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	all := make([]cdbEntry, 0, len(c.records))
	for id, rec := range c.records {
		all = append(all, cdbEntry{id, rec})
	}
	sortCDBEntries(all)
	return encodeCDBEntries(all)
}

// cdbRecordWire is the per-record wire size: 20-byte ID, 1-byte label,
// three int64 times.
const cdbRecordWire = 20 + 1 + 3*8

// takeEntries removes every record whose flow ID matches pred and
// returns them in deterministic export order — the CDB side of a
// flow-table migration.
func (c *CDB) takeEntries(pred func(ID) bool) []cdbEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	var taken []cdbEntry
	for id, rec := range c.records {
		if pred(id) {
			taken = append(taken, cdbEntry{id, rec})
			c.deleteLocked(id)
		}
	}
	sortCDBEntries(taken)
	return taken
}

// installEntries adds already validated records, replacing any record
// that shares a flow ID and honouring MaxRecords (newest-by-last-seen
// win; losers count in ImportDropped). Returns how many landed.
func (c *CDB) installEntries(incoming []cdbEntry) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cap := c.cfg.MaxRecords; cap > 0 {
		room := cap - len(c.records)
		if room < 0 {
			room = 0
		}
		if len(incoming) > room {
			incoming = append([]cdbEntry(nil), incoming...)
			sort.SliceStable(incoming, func(i, j int) bool {
				return incoming[i].rec.lastSeen < incoming[j].rec.lastSeen
			})
			dropped := len(incoming) - room
			c.importDropped.Add(int64(dropped))
			incoming = incoming[dropped:]
		}
	}
	for _, ent := range incoming {
		c.putLocked(ent.id, ent.rec)
		c.imported.Add(1)
		// An imported flow has already been classified once; if its record
		// is later purged and the flow comes back, that reclassification
		// should count as a reinsertion, same as before the restart.
		c.reinsertedFlows[ent.id] = struct{}{}
	}
	return len(incoming)
}

// Import restores records written by Export into the database, replacing
// any record that shares a flow ID. Last-seen times, λ, and
// classified-at are preserved, so purge sweeps behave as if the process
// had never restarted. When MaxRecords is set and the snapshot would
// overflow it, the newest records win and the rest are counted in
// CDBStats.ImportDropped. Hostile input returns an error wrapping
// persist.ErrCorrupt and leaves the database unchanged.
func (c *CDB) Import(data []byte) error {
	incoming, err := decodeCDBEntries(data)
	if err != nil {
		return err
	}
	c.installEntries(incoming)
	return nil
}
