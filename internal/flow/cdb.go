package flow

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"iustitia/internal/corpus"
	"iustitia/internal/stats"
)

// CDBConfig tunes the Classification Database's purge behaviour.
type CDBConfig struct {
	// PurgeOnClose removes a flow's record when a FIN or RST packet is
	// seen (paper: up to 46% of flows are removable this way).
	PurgeOnClose bool
	// PurgeInactive removes records idle longer than N times their last
	// observed inter-arrival time λ (paper's t_current − t_Fi > n·λ rule).
	PurgeInactive bool
	// N is the inactivity coefficient n; the paper finds n = 4 optimal.
	// Values <= 0 default to 4.
	N float64
	// DefaultLambda is the λ assumed for flows with a single observed
	// packet. Values <= 0 default to the paper's 0.5 s.
	DefaultLambda time.Duration
	// PurgeEvery is the inactivity sweep's amortization window: every
	// record is examined for idleness at least once per PurgeEvery
	// inserts (paper: a sweep per 5,000 insertions). The work is spread
	// incrementally — each insert examines ⌈size/PurgeEvery⌉ records at a
	// sweep cursor — instead of the historical stop-the-shard full scan
	// on every PurgeEvery-th insert. Values <= 0 default to 5000.
	PurgeEvery int
	// MaxAge, when positive, expires a record this long after its flow
	// was classified, forcing reclassification — the paper's §4.6
	// countermeasure against attackers who prepend deceiving padding to a
	// flow and then switch content. Zero disables expiry.
	MaxAge time.Duration
	// MaxRecords, when positive, hard-caps the database so its memory is
	// bounded even when the purge heuristics cannot keep up with flow
	// churn. An insert that overflows the cap first runs an inactivity
	// sweep; if the database is still over, the oldest records are
	// evicted (with headroom, so the eviction scan amortizes). Evicted
	// flows simply get reclassified if they come back.
	MaxRecords int
}

func (c CDBConfig) withDefaults() CDBConfig {
	if c.N <= 0 {
		c.N = 4
	}
	if c.DefaultLambda <= 0 {
		c.DefaultLambda = 500 * time.Millisecond
	}
	if c.PurgeEvery <= 0 {
		c.PurgeEvery = 5000
	}
	return c
}

// cdbRecord is one CDB entry. Together with its map key it corresponds to
// the paper's 194-bit record (hash + λ + label). ord is bookkeeping for
// the incremental sweep (the record's slot in CDB.order), never
// serialized.
type cdbRecord struct {
	label        corpus.Class
	lastSeen     time.Duration
	lambda       time.Duration
	classifiedAt time.Duration
	ord          int
}

// CDB is the Classification Database: flow ID -> class label, with the
// paper's two purge policies. It is safe for concurrent use.
//
// The inactivity purge is incremental: alongside the record map the CDB
// keeps a dense scan ring of live IDs (order) and a cursor (sweepPos).
// Each insert advances the cursor over a bounded quota of records —
// ⌈size/PurgeEvery⌉, so a full pass completes within PurgeEvery inserts,
// matching the historical full-scan cadence — removing the idle ones it
// passes. Removal is O(1) swap-remove from the ring. The historical
// behaviour held the lock for a whole-table scan on every PurgeEvery-th
// insert, a tail-latency spike proportional to table size.
type CDB struct {
	cfg CDBConfig

	mu              sync.Mutex
	records         map[ID]cdbRecord
	order           []ID // dense ring of live IDs; records[id].ord indexes it
	sweepPos        int  // incremental sweep cursor into order
	reinsertedFlows map[ID]struct{}

	// Counters are atomics (padded off the mutable state above) so
	// Stats() and Size() are lock-free snapshots — a metrics scrape never
	// serializes against the shard's insert/lookup path. Writers mutate
	// them under mu, keeping counter updates ordered with the map state
	// they describe.
	_                 stats.CacheLinePad
	size              atomic.Int64 // gauge: len(records)
	insertions        atomic.Int64
	removedByClose    atomic.Int64
	removedByIdle     atomic.Int64
	removedByPressure atomic.Int64
	imported          atomic.Int64
	importDropped     atomic.Int64
	reinsertions      atomic.Int64
	expired           atomic.Int64
	sweepExamined     atomic.Int64 // records examined by incremental sweep steps
	_                 stats.CacheLinePad
}

// NewCDB returns an empty CDB.
func NewCDB(cfg CDBConfig) *CDB {
	return &CDB{
		cfg:             cfg.withDefaults(),
		records:         make(map[ID]cdbRecord),
		reinsertedFlows: make(map[ID]struct{}),
	}
}

// putLocked stores a record, keeping the scan ring consistent: an update
// reuses the existing slot, a new record appends one. Caller holds c.mu.
func (c *CDB) putLocked(id ID, rec cdbRecord) {
	if old, ok := c.records[id]; ok {
		rec.ord = old.ord
		c.records[id] = rec
		return
	}
	rec.ord = len(c.order)
	c.order = append(c.order, id)
	c.records[id] = rec
	c.size.Store(int64(len(c.records)))
}

// deleteLocked removes a record and swap-fills its scan-ring slot with
// the last entry, so the ring stays dense in O(1). Caller holds c.mu.
func (c *CDB) deleteLocked(id ID) {
	rec, ok := c.records[id]
	if !ok {
		return
	}
	last := len(c.order) - 1
	moved := c.order[last]
	c.order[rec.ord] = moved
	if moved != id {
		m := c.records[moved]
		m.ord = rec.ord
		c.records[moved] = m
	}
	c.order = c.order[:last]
	delete(c.records, id)
	if c.sweepPos >= len(c.order) {
		c.sweepPos = 0
	}
	c.size.Store(int64(len(c.records)))
}

// Lookup returns the class of a known flow and refreshes its activity
// clock (updating λ from the gap since the previous packet).
func (c *CDB) Lookup(id ID, now time.Duration) (corpus.Class, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()

	rec, ok := c.records[id]
	if !ok {
		return 0, false
	}
	if c.cfg.MaxAge > 0 && now-rec.classifiedAt > c.cfg.MaxAge {
		// Stale label: expire the record so the flow is reclassified.
		c.deleteLocked(id)
		c.expired.Add(1)
		return 0, false
	}
	if gap := now - rec.lastSeen; gap > 0 {
		rec.lambda = gap
	}
	rec.lastSeen = now
	c.records[id] = rec
	return rec.label, true
}

// Insert stores a newly classified flow and advances the incremental
// inactivity sweep by one bounded step.
func (c *CDB) Insert(id ID, label corpus.Class, now time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()

	if _, seen := c.reinsertedFlows[id]; seen {
		c.reinsertions.Add(1)
	} else {
		// The first-insertion memory is accounting state, not routing
		// state, and must stay bounded on a node that runs for ever: it
		// resets once it far exceeds the live table — eight times the
		// records held (or one purge window, whichever is more), or eight
		// times the MaxRecords cap. Reinsertions of flows older than the
		// reset are then undercounted.
		bound := 8 * max(len(c.records), c.cfg.PurgeEvery)
		if c.cfg.MaxRecords > 0 {
			bound = min(bound, 8*c.cfg.MaxRecords)
		}
		if len(c.reinsertedFlows) >= bound {
			c.reinsertedFlows = make(map[ID]struct{})
		}
		c.reinsertedFlows[id] = struct{}{}
	}
	c.putLocked(id, cdbRecord{
		label:        label,
		lastSeen:     now,
		lambda:       c.cfg.DefaultLambda,
		classifiedAt: now,
	})
	c.insertions.Add(1)
	// The historical trigger fired its first (full) sweep on the
	// PurgeEvery-th insert; the incremental sweep keeps that activation
	// point — a database that never reaches PurgeEvery insertions never
	// purges by idleness, exactly as before — and from then on pays the
	// same aggregate scan rate in bounded per-insert slices.
	if c.cfg.PurgeInactive && c.insertions.Load() >= int64(c.cfg.PurgeEvery) {
		c.sweepStepLocked(now, c.sweepQuotaLocked())
	}
	if c.cfg.MaxRecords > 0 && len(c.records) > c.cfg.MaxRecords {
		c.relieveLocked(now)
	}
}

// sweepQuotaLocked is the per-insert incremental sweep budget:
// ⌈size/PurgeEvery⌉, i.e. the historical one-full-scan-per-PurgeEvery-
// inserts scan rate paid in constant-bounded slices. With MaxRecords set
// the quota never exceeds ⌈(MaxRecords+1)/PurgeEvery⌉ (the table is
// relieved back under the cap on the same insert that overflows it), so
// per-insert sweep work has a hard bound — pinned by
// TestCDBIncrementalSweepBoundedPerInsert. Caller holds c.mu.
func (c *CDB) sweepQuotaLocked() int {
	q := (len(c.records) + c.cfg.PurgeEvery - 1) / c.cfg.PurgeEvery
	if q < 1 {
		q = 1
	}
	return q
}

// sweepStepLocked examines up to quota records at the sweep cursor,
// removing those idle past n·λ, and wraps the cursor at the ring's end.
// When a record is removed, the swap-filled slot is examined next rather
// than skipped, so a pass misses nothing. Caller holds c.mu.
func (c *CDB) sweepStepLocked(now time.Duration, quota int) int {
	removed := 0
	examined := 0
	for examined < quota && len(c.order) > 0 {
		if c.sweepPos >= len(c.order) {
			c.sweepPos = 0
		}
		id := c.order[c.sweepPos]
		rec := c.records[id]
		examined++
		if now-rec.lastSeen > time.Duration(c.cfg.N*float64(rec.lambda)) {
			c.deleteLocked(id)
			removed++
		} else {
			c.sweepPos++
		}
	}
	c.sweepExamined.Add(int64(examined))
	c.removedByIdle.Add(int64(removed))
	return removed
}

// relieveLocked enforces MaxRecords: an inactivity sweep first, then
// oldest-first eviction down to cap minus 1/8 headroom, so the O(n log n)
// selection runs once per MaxRecords/8 overflowing inserts rather than on
// every one. Caller holds c.mu.
func (c *CDB) relieveLocked(now time.Duration) {
	c.fullSweepLocked(now)
	target := c.cfg.MaxRecords - c.cfg.MaxRecords/8
	if target < 1 {
		target = 1
	}
	if len(c.records) <= c.cfg.MaxRecords {
		return
	}
	type aged struct {
		id       ID
		lastSeen time.Duration
	}
	all := make([]aged, 0, len(c.records))
	for id, rec := range c.records {
		all = append(all, aged{id, rec.lastSeen})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].lastSeen < all[j].lastSeen })
	evict := int64(0)
	for _, a := range all[:len(all)-target] {
		c.deleteLocked(a.id)
		evict++
	}
	c.removedByPressure.Add(evict)
}

// Peek returns the class of a known flow without refreshing its activity
// clock or expiring stale records — a read-only query for operational
// tooling (verdict audits, status endpoints) that must not perturb λ
// estimates the way Lookup does.
func (c *CDB) Peek(id ID) (corpus.Class, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.records[id]
	if !ok {
		return 0, false
	}
	return rec.label, true
}

// Close removes a flow on FIN/RST when PurgeOnClose is enabled. It reports
// whether a record was removed.
func (c *CDB) Close(id ID) bool {
	if !c.cfg.PurgeOnClose {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.records[id]; !ok {
		return false
	}
	c.deleteLocked(id)
	c.removedByClose.Add(1)
	return true
}

// Sweep removes every record idle longer than n·λ at the given time and
// returns how many were removed — the on-demand full scan. The periodic
// purge no longer runs this whole-table form; it advances incrementally
// on each insert (see CDB and sweepStepLocked).
func (c *CDB) Sweep(now time.Duration) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fullSweepLocked(now)
}

func (c *CDB) fullSweepLocked(now time.Duration) int {
	removed := int64(0)
	for id, rec := range c.records {
		if now-rec.lastSeen > time.Duration(c.cfg.N*float64(rec.lambda)) {
			c.deleteLocked(id)
			removed++
		}
	}
	c.removedByIdle.Add(removed)
	return int(removed)
}

// Size returns the number of live records. Lock-free.
func (c *CDB) Size() int {
	return int(c.size.Load())
}

// CDBStats is a snapshot of CDB accounting.
type CDBStats struct {
	Size           int
	Insertions     int
	RemovedByClose int
	RemovedByIdle  int
	// Imported counts records restored from a snapshot by Import; together
	// with Insertions it accounts for every record that ever entered the
	// database, so the PR-1 accounting invariant extends across restarts.
	Imported int
	// ImportDropped counts snapshot records refused at Import because the
	// MaxRecords cap had no room for them (the oldest lose).
	ImportDropped int
	// RemovedByPressure counts records evicted by the MaxRecords hard cap.
	RemovedByPressure int
	// Reinsertions counts flows classified more than once because their
	// record had been purged — the reclassification cost of aggressive
	// purging the paper weighs when choosing n.
	Reinsertions int
	// Expired counts records dropped by the MaxAge reclassification rule.
	Expired int
	// SweepExamined counts records examined by incremental inactivity
	// sweep steps — per-insert purge work made visible, so tests (and
	// operators) can pin the amortization bound.
	SweepExamined int
}

// add accumulates s into the receiver (used by ParallelEngine).
func (a *CDBStats) add(s CDBStats) {
	a.Size += s.Size
	a.Insertions += s.Insertions
	a.RemovedByClose += s.RemovedByClose
	a.RemovedByIdle += s.RemovedByIdle
	a.Imported += s.Imported
	a.ImportDropped += s.ImportDropped
	a.RemovedByPressure += s.RemovedByPressure
	a.Reinsertions += s.Reinsertions
	a.Expired += s.Expired
	a.SweepExamined += s.SweepExamined
}

// Stats returns a snapshot of the CDB counters. Lock-free: each counter
// is read atomically, so a scrape concurrent with inserts may catch a
// record counted in Insertions but not yet in Size (or vice versa);
// counts are exact at quiescence.
func (c *CDB) Stats() CDBStats {
	return CDBStats{
		Size:              int(c.size.Load()),
		Insertions:        int(c.insertions.Load()),
		RemovedByClose:    int(c.removedByClose.Load()),
		RemovedByIdle:     int(c.removedByIdle.Load()),
		Imported:          int(c.imported.Load()),
		ImportDropped:     int(c.importDropped.Load()),
		RemovedByPressure: int(c.removedByPressure.Load()),
		Reinsertions:      int(c.reinsertions.Load()),
		Expired:           int(c.expired.Load()),
		SweepExamined:     int(c.sweepExamined.Load()),
	}
}

// ApproxBits returns the CDB's live size in paper-accounted bits
// (RecordBits per record). The count is the live record map, so records
// restored by Import are included the moment they land.
func (c *CDB) ApproxBits() int { return c.Size() * RecordBits }
