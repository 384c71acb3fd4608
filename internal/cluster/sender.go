package cluster

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"iustitia/internal/ingest"
	"iustitia/internal/packet"
)

// This file is the router's delivery stream to one node: a single shared
// ingest.Client per node, a per-node delivery sequence space, and a
// bounded replay journal of packets sent but not yet covered by the
// node's durable ack watermark. Together they close the SIGKILL hole: a
// packet the router counted Forwarded but the node lost with its TCP
// buffers (or processed but never checkpointed) is still in the journal,
// and is replayed — with its original sequence, so the node's dedup
// watermark discards anything whose effects survived — when the node
// comes back.

// journalEntry is one sent-but-unacked packet.
type journalEntry struct {
	seq uint64
	pkt packet.Packet
}

// journal is a fixed ring of journalEntry, oldest first: append, trimming
// the acked head and dropping the oldest entry past the cap all cost the
// same whatever the cap. The zero value (and any cap <= 0) journals
// nothing.
type journal struct {
	buf  []journalEntry // len(buf) is the cap; allocated once
	head int            // index of the oldest entry
	n    int
}

func newJournal(limit int) journal {
	if limit <= 0 {
		return journal{}
	}
	return journal{buf: make([]journalEntry, limit)}
}

func (j *journal) len() int { return j.n }

// at returns the i-th oldest entry, 0 <= i < len.
func (j *journal) at(i int) *journalEntry {
	if i += j.head; i >= len(j.buf) {
		i -= len(j.buf)
	}
	return &j.buf[i]
}

// advanceHead moves head to the next slot, wrapping at the cap.
func (j *journal) advanceHead() {
	if j.head++; j.head == len(j.buf) {
		j.head = 0
	}
}

// push appends e, overwriting the oldest entry when the ring is full, and
// reports how many entries that dropped (0 or 1).
func (j *journal) push(e journalEntry) (dropped int) {
	if len(j.buf) == 0 {
		return 0
	}
	if j.n == len(j.buf) {
		j.buf[j.head] = e
		j.advanceHead()
		return 1
	}
	*j.at(j.n) = e
	j.n++
	return 0
}

// trim discards the entries at or below the acked watermark, releasing
// their payloads.
func (j *journal) trim(acked uint64) {
	for j.n > 0 && j.buf[j.head].seq <= acked {
		j.buf[j.head] = journalEntry{}
		j.advanceHead()
		j.n--
	}
}

// drain empties the journal and returns what it held, oldest first.
func (j *journal) drain() []journalEntry {
	out := make([]journalEntry, j.n)
	for i := range out {
		e := j.at(i)
		out[i], *e = *e, journalEntry{}
	}
	j.head, j.n = 0, 0
	return out
}

// nodeSender serializes all deliveries to one node. Sequence assignment
// and the hand-off to the client happen under one mutex, and the client
// writes frames in hand-off order, so the node observes sequences in
// increasing order — which is what makes its high-watermark dedup sound.
//
// The client delivers asynchronously (group commit): a packet is journaled
// when the client accepts it, and a delivery failure the client reports
// later arms pendingReplay. So every packet counted Forwarded is either on
// the node's socket or in the journal, to be replayed under its original
// sequence.
type nodeSender struct {
	name string

	mu     sync.Mutex
	client *ingest.Client
	rng    *rand.Rand
	// nextSeq is the next sequence to assign. It advances even when the
	// client refuses the packet, so no two packets ever share a sequence.
	nextSeq uint64
	// lastQueued is the highest sequence the client has accepted since its
	// last reported failure; lastDelivered the highest a successful flush
	// has confirmed written — the watermark a migration waits for the
	// node to reach before exporting.
	lastQueued, lastDelivered uint64
	// journal holds accepted packets newer than the node's last durable
	// ack.
	journal journal
	// failStreak counts consecutive failed sends; it drives the
	// exponential backoff that keeps held requeues from hammering a
	// recovering node.
	failStreak int
	// pendingReplay is set on the node's availability-loss edge and by a
	// reported delivery failure: the next send (or the regain edge,
	// whichever comes first) replays the journal before any new packet,
	// keeping the sequence stream ordered.
	pendingReplay bool
}

// newSender builds the delivery stream for one node. The dial re-resolves
// the node's address on every connect, so UpdateNode handoffs take effect
// without rebuilding the sender.
func (r *Router) newSender(name string) *nodeSender {
	s := &nodeSender{
		name:    name,
		nextSeq: 1,
		journal: newJournal(r.journalCap()),
		rng:     rand.New(rand.NewSource(r.cfg.Seed ^ int64(pointHash(name, 0)))),
	}
	s.client, _ = ingest.NewClient(ingest.ClientConfig{
		Dial: func() (net.Conn, error) {
			nh, ok := r.probes.snapshot(name)
			if !ok {
				return nil, fmt.Errorf("cluster: unknown node %q", name)
			}
			return net.DialTimeout("tcp", nh.Config.Addr, r.cfg.DialTimeout)
		},
		MaxRetries:  r.cfg.SendRetries,
		BackoffBase: r.cfg.SendBackoffBase,
		BackoffMax:  r.cfg.SendBackoffMax,
		Seed:        r.cfg.Seed ^ int64(pointHash(name, 1)),
	})
	return s
}

// journalCap resolves the configured per-node journal bound: zero selects
// the default, negative disables journaling.
func (r *Router) journalCap() int {
	if r.cfg.JournalCap < 0 {
		return 0
	}
	if r.cfg.JournalCap == 0 {
		return DefaultJournalCap
	}
	return r.cfg.JournalCap
}

// sendToNode hands one packet to the node's client on the node's sequence
// stream and journals it. Callers hold the membership gate (shared or
// exclusive).
func (r *Router) sendToNode(s *nodeSender, pkt *packet.Packet) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pendingReplay {
		if err := r.replayLocked(s); err != nil {
			return err
		}
	}
	if s.failStreak > 0 {
		r.sleepStreak(s)
	}
	seq := s.nextSeq
	s.nextSeq++
	if err := s.client.SendSeq(pkt, seq); err != nil {
		s.clientFailed()
		return err
	}
	s.failStreak = 0
	s.lastQueued = seq
	r.trimLocked(s)
	if dropped := s.journal.push(journalEntry{seq: seq, pkt: *pkt}); dropped > 0 {
		r.mu.Lock()
		r.journalDropped += dropped
		r.mu.Unlock()
	}
	return nil
}

// clientFailed records a delivery failure the client reported: frames it
// had accepted are lost, so the journal must be replayed and nothing past
// lastDelivered can be assumed written. Called with s.mu held.
func (s *nodeSender) clientFailed() {
	s.failStreak++
	s.pendingReplay = true
	s.lastQueued = s.lastDelivered
}

// flushLocked waits until the client has written everything it accepted
// and advances lastDelivered. Called with s.mu held.
func (s *nodeSender) flushLocked() error {
	if err := s.client.Flush(); err != nil {
		s.clientFailed()
		return err
	}
	s.lastDelivered = s.lastQueued
	return nil
}

// closeConn flushes the client and closes its connection to the node. It
// must not be called with s.mu held: the flush can take the client's
// whole retry budget.
func (s *nodeSender) closeConn() error {
	err := s.client.Close()
	if err != nil {
		s.mu.Lock()
		s.clientFailed()
		s.mu.Unlock()
	}
	return err
}

// trimLocked discards journal entries at or below the node's last
// observed durable ack watermark. Called with s.mu held.
func (r *Router) trimLocked(s *nodeSender) {
	if h := r.probes.view()[s.name]; h != nil && !h.LastSeen.IsZero() {
		s.journal.trim(h.Status.AckedSeq)
	}
}

// replayLocked resends every unacked journal entry with its original
// sequence, in order, before any newer send — so the node's watermark
// stays monotone and dedup stays sound. Entries whose effects the node
// still holds are discarded there; entries it lost are reprocessed.
// Called with s.mu held.
func (r *Router) replayLocked(s *nodeSender) error {
	r.trimLocked(s)
	var err error
	sent := 0
	for ; sent < s.journal.len(); sent++ {
		e := s.journal.at(sent)
		if err = s.client.SendSeq(&e.pkt, e.seq); err != nil {
			break
		}
		if e.seq > s.lastQueued {
			s.lastQueued = e.seq
		}
	}
	r.mu.Lock()
	r.replayed += sent
	r.mu.Unlock()
	if err != nil {
		s.clientFailed()
		return err
	}
	s.pendingReplay = false
	s.failStreak = 0
	return nil
}

// sleepStreak backs off before retrying a node that just failed:
// exponential in the streak, capped, with jitter so concurrent held
// packets do not stampede a recovering node. Aborts early at drain
// force. Called with s.mu held — serializing the waiters is the point.
func (r *Router) sleepStreak(s *nodeSender) {
	base, max := r.cfg.SendBackoffBase, r.cfg.SendBackoffMax
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	if max <= 0 {
		max = time.Second
	}
	d := base
	for i := 1; i < s.failStreak && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	d += time.Duration(s.rng.Int63n(int64(d)/2 + 1))
	t := time.NewTimer(d)
	select {
	case <-t.C:
	case <-r.force:
		t.Stop()
	}
}

// replayAcross re-routes a dead node's orphaned journal through the
// current ring with fresh sequences in the new owners' streams. The
// packets were already counted Forwarded when first sent, so no router
// conservation counters move; undeliverable entries count ReplayDropped.
// Called with the membership gate held exclusively.
func (r *Router) replayAcross(entries []journalEntry) {
	for i := range entries {
		pkt := &entries[i].pkt
		point := PointOfTuple(pkt.Tuple)
		candidates := r.ring.Candidates(point, r.ring.Len())
		health := r.probes.view()
		delivered := false
		for _, n := range candidates {
			if !health.available(n) {
				continue
			}
			s := r.senders[n]
			if s == nil {
				continue
			}
			if err := r.sendToNode(s, pkt); err == nil {
				r.mu.Lock()
				r.replayed++
				r.mu.Unlock()
				delivered = true
				break
			}
		}
		if !delivered {
			r.mu.Lock()
			r.replayDropped++
			r.mu.Unlock()
		}
	}
}
