package flow

import (
	"errors"
	"fmt"
	"time"

	"iustitia/internal/corpus"
	"iustitia/internal/packet"
	"iustitia/internal/persist"
	"iustitia/internal/stats"
)

// ParallelEngine shards flows across independent engines by flow ID, so a
// multi-queue NIC (or multiple goroutines) can classify in parallel
// without cross-shard lock contention. All packets of one flow hash to the
// same shard, so per-flow state never crosses shards and each shard's CDB
// purging behaves exactly like a single engine's.
type ParallelEngine struct {
	shards []*Engine
}

// NewParallelEngine builds shards engines from cfg. When classifiers is
// non-nil it must supply one classifier per shard (use this when the
// classifier holds per-instance state, e.g. an entropy estimator);
// otherwise cfg.Classifier is shared across shards and must be safe for
// concurrent use (the exact-calculation classifier is).
func NewParallelEngine(cfg EngineConfig, shards int, classifiers []Classifier) (*ParallelEngine, error) {
	if shards < 1 {
		return nil, fmt.Errorf("flow: shard count %d is not positive", shards)
	}
	if classifiers != nil && len(classifiers) != shards {
		return nil, fmt.Errorf("flow: %d classifiers for %d shards", len(classifiers), shards)
	}
	pe := &ParallelEngine{shards: make([]*Engine, shards)}
	for i := range pe.shards {
		shardCfg := cfg
		shardCfg.Seed = cfg.Seed + int64(i)
		if classifiers != nil {
			shardCfg.Classifier = classifiers[i]
		}
		engine, err := NewEngine(shardCfg)
		if err != nil {
			return nil, fmt.Errorf("flow: shard %d: %w", i, err)
		}
		pe.shards[i] = engine
	}
	return pe, nil
}

// Shards returns the shard count.
func (pe *ParallelEngine) Shards() int { return len(pe.shards) }

// shardFor maps a flow ID to its shard (see ID.Residue).
func (pe *ParallelEngine) shardFor(id ID) *Engine {
	return pe.shards[pe.shardIndex(id)]
}

// shardIndex is shardFor returning the index, for migration dispatch.
func (pe *ParallelEngine) shardIndex(id ID) int { return id.Residue(len(pe.shards)) }

// Process routes a packet to its flow's shard. Safe for concurrent use;
// callers typically run one goroutine per NIC queue.
func (pe *ParallelEngine) Process(p *packet.Packet) (Verdict, error) {
	if p == nil {
		return Verdict{}, errors.New("flow: nil packet")
	}
	return pe.shardFor(IDOf(p.Tuple)).Process(p)
}

// eachShard runs f on every shard and sums the counts. A failing shard
// does not stop the others; per-shard errors come back joined.
func (pe *ParallelEngine) eachShard(f func(*Engine) (int, error)) (int, error) {
	total := 0
	var errs []error
	for i, shard := range pe.shards {
		n, err := f(shard)
		total += n
		if err != nil {
			errs = append(errs, fmt.Errorf("flow: shard %d: %w", i, err))
		}
	}
	return total, errors.Join(errs...)
}

// FlushIdle flushes idle pending flows on every shard.
func (pe *ParallelEngine) FlushIdle(now time.Duration) (int, error) {
	return pe.eachShard(func(e *Engine) (int, error) { return e.FlushIdle(now) })
}

// FlushAll flushes every pending flow on every shard.
func (pe *ParallelEngine) FlushAll(now time.Duration) (int, error) {
	return pe.eachShard(func(e *Engine) (int, error) { return e.FlushAll(now) })
}

// SetMaxPending applies the cap to every shard. The cap is per shard,
// matching how EngineConfig.MaxPending is interpreted at construction.
func (pe *ParallelEngine) SetMaxPending(n int) error {
	_, err := pe.eachShard(func(e *Engine) (int, error) { return 0, e.SetMaxPending(n) })
	return err
}

// SetEviction applies the eviction policy to every shard.
func (pe *ParallelEngine) SetEviction(p EvictPolicy) error {
	_, err := pe.eachShard(func(e *Engine) (int, error) { return 0, e.SetEviction(p) })
	return err
}

// SetIdleFlush applies the idle-flush window to every shard.
func (pe *ParallelEngine) SetIdleFlush(d time.Duration) error {
	_, err := pe.eachShard(func(e *Engine) (int, error) { return 0, e.SetIdleFlush(d) })
	return err
}

// Label returns the classification of a flow, if any shard has one.
func (pe *ParallelEngine) Label(t packet.FiveTuple) (corpus.Class, bool) {
	return pe.shardFor(IDOf(t)).Label(t)
}

// RecordedLabel returns a flow's durable verdict, surviving a checkpoint
// restore (see Engine.RecordedLabel).
func (pe *ParallelEngine) RecordedLabel(t packet.FiveTuple) (corpus.Class, bool) {
	return pe.shardFor(IDOf(t)).RecordedLabel(t)
}

// StreamCounters returns the per-flow counter budget of stream mode, or
// 0 for a buffered engine. The budget is engine-wide by construction:
// NewParallelEngine copies one EngineConfig to every shard, varying only
// the random-skip Seed, and the stream seed (StreamConfig.Seed) is
// documented engine-wide so sketches migrate bit-exactly between shards.
// Every shard therefore derives the identical (ε, δ, widths, b) counter
// geometry, and shard 0 answers for all of them — an invariant pinned by
// TestParallelStreamCountersUniform.
func (pe *ParallelEngine) StreamCounters() int {
	return pe.shards[0].StreamCounters()
}

// SampleBuffers pools every shard's shadow-sample ring.
func (pe *ParallelEngine) SampleBuffers() [][]byte {
	var all [][]byte
	for _, shard := range pe.shards {
		all = append(all, shard.SampleBuffers()...)
	}
	return all
}

// LatencyHistograms returns one latency snapshot per shard, in shard
// order.
func (pe *ParallelEngine) LatencyHistograms() []*stats.Histogram {
	hs := make([]*stats.Histogram, len(pe.shards))
	for i, shard := range pe.shards {
		hs[i] = shard.LatencyHistogram()
	}
	return hs
}

// Stats aggregates counters across shards. Degraded is the number of
// shards currently in degraded mode. The walk is lock-free: each shard's
// Stats is an atomic snapshot (see Engine.Stats), so scraping a 16-shard
// engine no longer acquires 16 shard locks in turn.
func (pe *ParallelEngine) Stats() EngineStats {
	var agg EngineStats
	for _, shard := range pe.shards {
		agg.add(shard.Stats())
	}
	return agg
}

// ExportCheckpoint serializes every shard's checkpoint into one payload.
// Frame it with persist.SaveFile under persist.KindParallelCheckpoint.
// The shard count is pinned in the payload: flow→shard routing depends on
// it, so a checkpoint can only be restored into an engine with the same
// shard count.
func (pe *ParallelEngine) ExportCheckpoint() []byte {
	var enc persist.Encoder
	enc.U32(uint32(len(pe.shards)))
	for _, shard := range pe.shards {
		enc.Blob(shard.ExportCheckpoint())
	}
	return enc.Bytes()
}

// ImportCheckpoint restores a checkpoint written by ExportCheckpoint. The
// shard count must match exactly — a CDB record restored into the wrong
// shard would never be hit by shardFor. The payload is fully validated
// before any shard is touched, but a semantic failure inside shard i can
// leave shards 0..i-1 restored; callers that need all-or-nothing should
// import into a fresh engine and discard it on error (what
// iustitia-serve's cold-start fallback does).
func (pe *ParallelEngine) ImportCheckpoint(data []byte) error {
	d := persist.NewDecoder(data)
	n := d.U32()
	if d.Err() == nil && int(n) != len(pe.shards) {
		d.Fail("checkpoint has %d shards, engine has %d", n, len(pe.shards))
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("flow: parallel checkpoint import: %w", err)
	}
	blobs := make([][]byte, len(pe.shards))
	for i := range blobs {
		blobs[i] = d.Blob()
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("flow: parallel checkpoint import: %w", err)
	}
	for i, shard := range pe.shards {
		if err := shard.ImportCheckpoint(blobs[i]); err != nil {
			return fmt.Errorf("flow: shard %d: %w", i, err)
		}
	}
	return nil
}
