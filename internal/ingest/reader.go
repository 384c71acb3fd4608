package ingest

import (
	"errors"
	"io"
	"net"
	"sync/atomic"
	"time"

	"iustitia/internal/flow"
)

// This file is the path from a socket read to a worker queue. Its unit of
// work is one read, not one packet: the connection reader decodes every
// complete frame a read left in its buffer — payloads aliasing the buffer,
// each tuple hashed once — runs the count → dedup → enqueue window for all
// of them under one hold of the frame gate, and hands each worker one
// message for its share. A lone frame goes through the same steps alone;
// nothing waits to fill.
//
// Alias lifetime: a packet's Payload points into the read buffer (chunk) it
// arrived in. Every message holds a reference on its chunk and the worker
// drops it after Engine.ProcessBatch returns, which copies what it keeps;
// the reader never writes bytes a message can still see.

// maxConnChunks bounds the read buffers one connection owns, so its memory
// is at most maxConnChunks × (19 + MaxFrame) however far its workers lag.
// A connection whose workers keep up lives in one chunk, as the bufio
// reader it replaces did. When all are held the reader waits for one —
// unread bytes stay in the kernel and push back on the sender — whatever
// the overflow policy: shedding applies to packets, and bytes not read yet
// are not packets.
const maxConnChunks = 4

// chunk is one read buffer. The reader fills and parses it front to back;
// buf[r:w] is read but not yet parsed.
type chunk struct {
	buf  []byte
	r, w int
	// refs counts the reader (while this is its current chunk) plus every
	// message whose payloads alias buf. Only the reader adds, so a count of
	// one read by the reader means the chunk is its alone.
	refs atomic.Int32
}

// budget is a bound on packets in flight, taken and returned by count: the
// reader's one atomic operation per message where a channel semaphore paid
// one channel operation per packet.
type budget struct {
	limit int64
	used  atomic.Int64
	// freed holds at most one token: space came back since the last wait.
	freed chan struct{}
}

func newBudget(limit int) budget {
	return budget{limit: int64(limit), freed: make(chan struct{}, 1)}
}

// take reserves up to n and returns how many it got, possibly none. It
// never blocks.
func (b *budget) take(n int) int {
	for {
		used := b.used.Load()
		k := min(int64(n), b.limit-used)
		if k <= 0 {
			return 0
		}
		if b.used.CompareAndSwap(used, used+k) {
			return int(k)
		}
	}
}

// give returns n and wakes a waiter.
func (b *budget) give(n int) {
	b.used.Add(-int64(n))
	b.signal()
}

func (b *budget) signal() {
	select {
	case b.freed <- struct{}{}:
	default:
	}
}

// wait blocks until space may have come back, or abort closes. Several
// readers can wait on one worker queue's budget while a give leaves one
// token, so a woken waiter that still sees space passes the token on.
func (b *budget) wait(abort <-chan struct{}) bool {
	select {
	case <-b.freed:
		if b.used.Load() < b.limit {
			b.signal()
		}
		return true
	case <-abort:
		return false
	}
}

// workQueue is one worker's inbox. space bounds the packets queued in it
// (QueueDepth / Workers); ch has that many slots, so sending a message
// whose packets hold space never blocks.
type workQueue struct {
	ch    chan *subBatch
	space budget
}

// subBatch is one message from a connection reader to a worker: packets of
// one read that belong to that worker, at most Batch() of them, in arrival
// order.
type subBatch struct {
	items []flow.Routed
	chunk *chunk      // the read buffer the payloads alias
	conn  *connReader // whose credits the packets hold
}

func (s *Server) getSubBatch() *subBatch {
	if m, _ := s.batchPool.Get().(*subBatch); m != nil {
		return m
	}
	return &subBatch{items: make([]flow.Routed, 0, s.Batch())}
}

func (s *Server) putSubBatch(m *subBatch) {
	m.items, m.chunk, m.conn = m.items[:0], nil, nil
	s.batchPool.Put(m)
}

// connReader is the read side of one data connection.
type connReader struct {
	s  *Server
	sc frameScanner

	cur     *chunk
	need    int         // bytes the undecided frame at cur.r needs, from the last scan
	free    chan *chunk // chunks every holder is done with; never blocks (cap maxConnChunks)
	nchunks int

	// credits bounds this connection's admitted-but-unprocessed packets
	// (PerConnQueue), so one firehose client cannot fill the worker queues.
	credits budget

	// Scratch of the read being admitted, reused across reads.
	frames []flow.Routed
	seqs   []uint64
	open   []*subBatch // per worker: the message being filled
	sent   int         // packets of this read queued so far
	posted int         // of those, how many Server.admitted already counts
}

func (s *Server) newConnReader() *connReader {
	cr := &connReader{
		s:       s,
		sc:      frameScanner{max: s.cfg.MaxFrame},
		free:    make(chan *chunk, maxConnChunks),
		credits: newBudget(s.cfg.PerConnQueue),
		open:    make([]*subBatch, len(s.queues)),
	}
	cr.cur = cr.takeChunk()
	return cr
}

// takeChunk returns a chunk nobody else holds, allocating until the
// connection owns maxConnChunks and waiting for a worker to finish after
// that. It returns nil when the server is force-closing.
func (cr *connReader) takeChunk() *chunk {
	var c *chunk
	select {
	case c = <-cr.free:
	default:
		if cr.nchunks < maxConnChunks {
			cr.nchunks++
			c = &chunk{buf: make([]byte, readBufSize(cr.s.cfg.MaxFrame))}
			break
		}
		select {
		case c = <-cr.free:
		case <-cr.s.force:
			return nil
		}
	}
	c.r, c.w = 0, 0
	c.refs.Store(1)
	return c
}

// release drops one reference on c; the last one out returns it to the
// reader.
func (cr *connReader) release(c *chunk) {
	if c.refs.Add(-1) == 0 {
		if hook := cr.s.onRecycle; hook != nil {
			hook(c.buf)
		}
		cr.free <- c
	}
}

// makeRoom readies the current chunk for the next read. While no message
// aliases it the unparsed tail slides to the front, as in a bufio reader.
// Otherwise the reader keeps filling behind what the workers hold for as
// long as the undecided frame still fits, and then carries the tail over
// to a free chunk. It reports false when the server is force-closing.
func (cr *connReader) makeRoom() bool {
	cur := cr.cur
	if cur.refs.Load() == 1 {
		if cur.r > 0 {
			cur.w = copy(cur.buf, cur.buf[cur.r:cur.w])
			cur.r = 0
			if hook := cr.s.onRecycle; hook != nil {
				hook(cur.buf[cur.w:])
			}
		}
		return true
	}
	if cur.r+cr.need <= len(cur.buf) {
		return true
	}
	next := cr.takeChunk()
	if next == nil {
		return false
	}
	next.w = copy(next.buf, cur.buf[cur.r:cur.w])
	cr.release(cur)
	cr.cur = next
	return true
}

// deadlineConn applies the per-connection deadlines: a read that starts
// with nothing buffered gets the idle deadline (time allowed between
// frames), a read that continues a partly received frame the read deadline
// (progress required mid-frame).
type deadlineConn struct {
	net.Conn
	idle, read time.Duration
	atBoundary bool
}

func (d *deadlineConn) Read(p []byte) (int, error) {
	timeout := d.read
	if d.atBoundary {
		timeout = d.idle
	}
	if timeout > 0 {
		if err := d.Conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return 0, err
		}
	}
	return d.Conn.Read(p)
}

// serveConn reads one connection until EOF, error, deadline expiry, a
// disconnect-policy trigger, or a forced drain.
func (s *Server) serveConn(c net.Conn) {
	defer s.readerWG.Done()
	defer func() {
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()

	cr := s.newConnReader()
	dc := &deadlineConn{Conn: c, idle: s.cfg.IdleTimeout, read: s.cfg.ReadTimeout}
	for empty := 0; empty < maxEmptyReads; {
		if !cr.makeRoom() {
			return
		}
		cur := cr.cur
		dc.atBoundary = cur.r == cur.w
		n, err := dc.Read(cur.buf[cur.w:])
		cur.w += n
		if n > 0 {
			empty = 0
			if !cr.admitRead() {
				return
			}
		} else {
			empty++
		}
		if err != nil {
			cr.finish(err)
			return
		}
	}
	cr.finish(io.ErrNoProgress)
}

// finish accounts the end of the stream: part of a frame left in the
// buffer is a torn frame, quarantined like any other bad bytes.
func (cr *connReader) finish(err error) {
	s := cr.s
	torn := 0
	if cr.cur.w > cr.cur.r {
		before := cr.sc.quarantined
		cr.sc.quarantine()
		torn = cr.sc.quarantined - before
	}
	var nerr net.Error
	timedOut := errors.As(err, &nerr) && nerr.Timeout()
	if torn == 0 && !timedOut {
		return
	}
	s.mu.Lock()
	s.received += torn
	s.quarantined += torn
	if timedOut {
		s.timedOut++
	}
	s.mu.Unlock()
}

// scan parses every complete frame in the current chunk into cr.frames and
// cr.seqs — payloads aliasing the chunk, each tuple hashed once — and
// returns how many quarantine events it passed on the way.
func (cr *connReader) scan() (quarantined int) {
	cur := cr.cur
	cr.frames, cr.seqs = cr.frames[:0], cr.seqs[:0]
	before := cr.sc.quarantined
	for {
		pkt, seq, used, need := cr.sc.next(cur.buf[cur.r:cur.w])
		cur.r += used
		if need != 0 {
			cr.need = need
			return cr.sc.quarantined - before
		}
		cr.frames = append(cr.frames, flow.Routed{ID: flow.IDOf(pkt.Tuple), Pkt: pkt})
		cr.seqs = append(cr.seqs, seq)
	}
}

// admitRead admits every complete frame the last read left in the current
// chunk as one unit. It reports whether the connection stays open. Every
// frame and every quarantine event is counted in Received exactly once, and
// every frame ends up in exactly one of Admitted and Shed.
func (cr *connReader) admitRead() bool {
	s := cr.s
	quarantined := cr.scan()
	if len(cr.frames) == 0 && quarantined == 0 {
		return true
	}

	// The shared gate covers the count-dedup-enqueue window of the whole
	// read (not the blocking read itself), so a quiesced checkpoint sees
	// every received packet either fully enqueued or not at all.
	s.gate.RLock()
	defer s.gate.RUnlock()

	s.mu.Lock()
	s.received += len(cr.frames) + quarantined
	s.quarantined += quarantined
	fresh := cr.frames[:0]
	for i, seq := range cr.seqs {
		if seq != 0 {
			if seq <= s.seenSeq {
				// A replayed frame whose effects are already in the node's
				// state: discard before the engine, accounted as shed so the
				// transport law stays exact.
				continue
			}
			s.seenSeq = seq
		}
		if len(fresh) != i {
			cr.frames[len(fresh)] = cr.frames[i]
		}
		fresh = fresh[:len(fresh)+1]
	}
	dups := len(cr.frames) - len(fresh)
	s.shed += dups
	s.deduped += dups
	s.mu.Unlock()

	policy, batch := s.OverflowPolicy(), s.Batch()
	cr.sent, cr.posted = 0, 0
	alive := true
	for i := range fresh {
		w := fresh[i].ID.Residue(len(s.queues))
		m := cr.open[w]
		if m == nil {
			m = s.getSubBatch()
			cr.open[w] = m
		}
		m.items = append(m.items, fresh[i])
		if len(m.items) >= batch {
			cr.open[w] = nil
			if alive = cr.send(&s.queues[w], m, policy); !alive {
				break
			}
		}
	}
	for w, m := range cr.open {
		if m == nil {
			continue
		}
		cr.open[w] = nil
		if alive {
			alive = cr.send(&s.queues[w], m, policy)
		} else {
			s.putSubBatch(m)
		}
	}

	// Whatever was fresh and did not get queued — refused by a bound under
	// a shedding policy, or left over when the connection was cut or the
	// drain forced — is shed, here and only here.
	s.mu.Lock()
	s.admitted += cr.sent - cr.posted
	s.shed += len(fresh) - cr.sent
	if !alive && policy == OverflowDisconnect {
		s.disconnected++
	}
	s.mu.Unlock()
	return alive
}

// send queues m's packets on q under the backpressure policy and reports
// whether the connection stays open. Packets it does not queue are the
// caller's to shed.
func (cr *connReader) send(q *workQueue, m *subBatch, policy OverflowPolicy) bool {
	s := cr.s
	for {
		// A packet needs a connection credit and a slot in the worker's
		// queue; short is whichever bound ran out first.
		var short *budget
		k := cr.credits.take(len(m.items))
		if k < len(m.items) {
			short = &cr.credits
		}
		if got := q.space.take(k); got < k {
			cr.credits.used.Add(int64(got - k))
			k, short = got, &q.space
		}

		if k > 0 {
			head := m
			if k < len(m.items) {
				// Queue what fits as its own message; m keeps the tail.
				head = s.getSubBatch()
				head.items = append(head.items, m.items[:k]...)
				m.items = m.items[:copy(m.items, m.items[k:])]
			}
			head.chunk, head.conn = cr.cur, cr
			cr.cur.refs.Add(1)
			cr.sent += k
			q.ch <- head
			if head == m {
				return true
			}
		}
		if policy != OverflowBlock {
			s.putSubBatch(m)
			return policy == OverflowShed
		}
		// Blocking: post what is queued first, so Stats does not sit on
		// packets the workers may already have processed.
		if cr.sent > cr.posted {
			s.mu.Lock()
			s.admitted += cr.sent - cr.posted
			s.mu.Unlock()
			cr.posted = cr.sent
		}
		if !short.wait(s.force) {
			s.putSubBatch(m)
			return false
		}
	}
}
