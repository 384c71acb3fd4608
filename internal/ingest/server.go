package ingest

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iustitia/internal/corpus"
	"iustitia/internal/flow"
	"iustitia/internal/packet"
)

// OverflowPolicy selects what a connection reader does when its queue
// budget is exhausted — the transport-level twin of flow.EvictPolicy.
type OverflowPolicy int

const (
	// OverflowBlock stalls the reader until queue space frees up. The
	// stall propagates to the client through TCP flow control, so a slow
	// engine slows senders instead of dropping their packets.
	OverflowBlock OverflowPolicy = iota
	// OverflowShed drops the packet with a synthetic fallback verdict
	// (the analogue of flow.EvictShed): the packet is accounted to the
	// server's FallbackClass queue, counted in Shed, and the connection
	// keeps going.
	OverflowShed
	// OverflowDisconnect sheds the packet and closes the connection: a
	// client outrunning the engine is cut off rather than throttled.
	OverflowDisconnect
)

// String names the policy for flags and logs.
func (p OverflowPolicy) String() string {
	switch p {
	case OverflowBlock:
		return "block"
	case OverflowShed:
		return "shed"
	case OverflowDisconnect:
		return "disconnect"
	default:
		return fmt.Sprintf("OverflowPolicy(%d)", int(p))
	}
}

// ParseOverflowPolicy maps a flag value to its policy.
func ParseOverflowPolicy(s string) (OverflowPolicy, error) {
	switch s {
	case "block":
		return OverflowBlock, nil
	case "shed":
		return OverflowShed, nil
	case "disconnect":
		return OverflowDisconnect, nil
	default:
		return 0, fmt.Errorf("ingest: unknown overflow policy %q (want block|shed|disconnect)", s)
	}
}

// Config assembles an ingest server.
type Config struct {
	// Engine receives every admitted packet. Required.
	Engine *flow.ParallelEngine
	// Listeners accept framed-packet connections (TCP, unix socket, or
	// anything else implementing net.Listener). At least one is required.
	Listeners []net.Listener
	// StatusListener, when non-nil, serves a plain-text health/stats dump
	// to every connection it accepts (one dump per connection, then
	// close) — curl-able operational visibility.
	StatusListener net.Listener
	// Workers is how many supervised goroutines drain the queues into the
	// engine. Packets are routed to workers by flow ID, so all packets of
	// one flow are processed in arrival order. Zero defaults to 2.
	Workers int
	// Batch bounds how many queued packets a worker submits to the engine
	// in one ProcessBatch call. Workers take whatever is already queued
	// without waiting, so a lightly loaded server keeps per-packet
	// latency while a saturated one amortizes routing over the batch.
	// Zero defaults to DefaultBatch.
	Batch int
	// QueueDepth bounds the total packets queued between readers and
	// workers (split evenly across workers). Zero defaults to 1024.
	QueueDepth int
	// PerConnQueue bounds how many queued packets one connection may hold
	// unprocessed, so a single firehose client cannot monopolize the
	// global queue. Zero defaults to 256.
	PerConnQueue int
	// Overflow selects the backpressure behaviour when a bound is hit.
	Overflow OverflowPolicy
	// FallbackClass is the queue shed packets are accounted to.
	FallbackClass corpus.Class
	// StreamMode names the engine's sketch backend when it runs in
	// constant-memory stream mode (e.g. "lall", "cc"); empty for a
	// buffered engine. Informational: surfaced in the status dump and the
	// STATUS line's stream= key.
	StreamMode string
	// IdleTimeout bounds how long a connection may sit between frames
	// before it is closed. Zero disables it.
	IdleTimeout time.Duration
	// ReadTimeout bounds the gap between consecutive reads inside one
	// frame, so a client stalling mid-frame cannot pin a connection
	// forever. Zero disables it.
	ReadTimeout time.Duration
	// MaxFrame bounds the payload length a frame header may declare
	// (<= 0 selects DefaultMaxFrame).
	MaxFrame int
	// Supervision tunes worker restart backoff and the crash-loop
	// breaker.
	Supervision SupervisorConfig
	// PreProcess, when non-nil, runs on every packet before it reaches
	// the engine. It is the fault-injection surface for supervision
	// tests: a panic here crashes the worker and exercises the
	// supervisor, exactly like a panic in engine code would.
	PreProcess func(*packet.Packet)
	// OnFinalCheckpoint, when non-nil, receives the engine's parallel
	// checkpoint at the end of a drain, after all pending flows are
	// flushed. Hand it to persist.SaveFile under
	// persist.KindParallelCheckpoint.
	OnFinalCheckpoint func(snapshot []byte)
	// NodeCheckpoint, when non-nil, receives quiesced node checkpoints (the
	// persist.KindNodeCheckpoint payload: delivery-sequence watermark,
	// engine checkpoint, and pending flows — see EncodeNodeCheckpoint). The
	// server pauses frame intake, drains admitted packets through the
	// engine, captures the payload atomically, then calls the hook outside
	// the pause. A nil return advances the durable ack watermark the STATUS
	// line reports as acked_seq, which tells a cluster router it may trim
	// its replay journal up to that sequence.
	NodeCheckpoint func(payload []byte) error
	// NodeCheckpointEvery is the interval between periodic node
	// checkpoints. Zero with NodeCheckpoint set means checkpoints happen
	// only on demand (CheckpointNow) and at the end of a drain.
	NodeCheckpointEvery time.Duration
	// QuiesceTimeout bounds how long a checkpoint or flow export may wait
	// for in-flight packets to drain before giving up. Zero defaults to 5s.
	QuiesceTimeout time.Duration
	// ResumeSeq primes the delivery-sequence dedup watermark from a
	// restored node checkpoint: replayed frames at or below it are
	// duplicates whose effects the restored state already contains.
	ResumeSeq uint64
	// NodeName identifies this instance on the machine-readable STATUS
	// line a cluster router consumes. Empty defaults to "node"; the name
	// must not contain whitespace or '=' (it must survive k=v parsing).
	NodeName string
	// CheckpointTime, when non-nil, reports when the last checkpoint was
	// written (the zero time means never); the STATUS line carries its
	// age so a router can spot a node whose durability has stalled.
	CheckpointTime func() time.Time
	// AdminHandler, when non-nil, receives status-listener commands the
	// server itself does not recognize — the hook the ops admin protocol
	// (internal/ops) dispatches through. It gets the upper-cased verb, its
	// arguments, the connection's buffered reader (for verbs that carry a
	// body, e.g. a model blob), and the connection for replies; it reports
	// whether it handled the verb. The handler runs on the status
	// connection's goroutine with the standard status deadlines already
	// armed; verbs that need more time must extend them on c.
	AdminHandler func(verb string, args []string, body *bufio.Reader, c net.Conn) bool
}

// Stats is a point-in-time summary of ingest activity. The frame counters
// obey the transport conservation law asserted by the chaos soak test:
// Received == Admitted + Quarantined + Shed.
type Stats struct {
	// State is the current lifecycle state.
	State State
	// ActiveConns and TotalConns count data connections.
	ActiveConns, TotalConns int
	// TimedOut counts connections closed by read/idle deadline expiry.
	TimedOut int
	// Disconnected counts connections closed by OverflowDisconnect.
	Disconnected int
	// Received counts frame events: every valid frame plus every
	// quarantine event.
	Received int
	// Admitted counts packets handed to the worker queues (and therefore
	// to the engine, panics aside).
	Admitted int
	// Quarantined counts malformed-frame events survived by resync.
	Quarantined int
	// Shed counts packets dropped by backpressure, each accounted to the
	// fallback queue.
	Shed int
	// Deduped counts duplicate sequenced frames (delivery sequence at or
	// below the watermark) discarded before the engine. Each one is also
	// counted in Received and Shed, so the conservation law holds.
	Deduped int
	// SeenSeq is the highest delivery sequence observed on any frame;
	// AckedSeq is the watermark covered by the last successful node
	// checkpoint (equal to SeenSeq when no NodeCheckpoint hook is set —
	// with nothing to persist, observation is as durable as it gets).
	SeenSeq, AckedSeq uint64
	// EngineErrors counts engine.Process errors (strict-mode
	// classification failures surfaced through the packet path).
	EngineErrors int
	// Supervisor summarizes worker supervision.
	Supervisor SupervisorStats
}

// DefaultBatch is the per-worker engine submission batch bound when
// Config.Batch is zero.
const DefaultBatch = 64

// item is one queued packet plus the credit it holds on its connection.
type item struct {
	pkt     packet.Packet
	credits chan struct{}
}

// batchState is the in-progress batch of one worker slot. It lives on the
// Server rather than the worker's stack so a supervisor restart resumes
// the batch mid-way: only the packet that crashed the worker is lost.
type batchState struct {
	items []item
	// pkts holds the packets that already passed PreProcess and await
	// engine submission.
	pkts []*packet.Packet
	// next indexes the first item not yet claimed for pre-processing.
	next int
}

// Server is the framed packet-ingest server.
type Server struct {
	cfg     Config
	health  healthFSM
	sup     *supervisor
	queues  []chan item
	batches []*batchState
	maxSeen atomic.Int64 // highest packet virtual time, for FlushAll

	// Live-reconfigurable knobs (see reconfig.go). The atomics shadow
	// cfg.Overflow and cfg.Batch so SET/SIGHUP can retune them while
	// readers and workers run; everything else in cfg stays immutable
	// after NewServer.
	overflow atomic.Int32
	batchN   atomic.Int32

	startTime time.Time // set once in Start, guarded by mu

	// force is closed when a drain deadline expires: blocked enqueues
	// abort and restart timers fire early.
	force     chan struct{}
	forceOnce sync.Once
	// done is closed when the first Shutdown finishes; later callers wait
	// on it and share the first call's error.
	done chan struct{}

	// gate pauses frame intake for a quiesced checkpoint or flow export:
	// readers hold it shared across the count-dedup-enqueue window of one
	// frame (never across the blocking frame read), a checkpoint holds it
	// exclusively while it drains the queues and captures state. processed
	// counts packets that have fully left the worker queues, so
	// processed == admitted under the write lock means the engine has seen
	// everything that was ever enqueued.
	gate      sync.RWMutex
	processed atomic.Int64

	// ckptStop ends the periodic checkpoint loop at the start of a drain.
	ckptStop chan struct{}
	ckptWG   sync.WaitGroup

	readerWG sync.WaitGroup // connection readers
	acceptWG sync.WaitGroup // accept loops
	workerWG sync.WaitGroup // worker slots (spans restarts)
	statusWG sync.WaitGroup

	mu           sync.Mutex
	conns        map[net.Conn]struct{}
	totalConns   int
	timedOut     int
	disconnected int
	received     int
	admitted     int
	quarantined  int
	shed         int
	deduped      int
	seenSeq      uint64
	ackedSeq     uint64
	engineErrors int
	shutdownErr  error
	started      bool
	shutdown     bool
}

// NewServer validates cfg and builds a server. Call Start to begin
// accepting.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("ingest: engine is required")
	}
	if len(cfg.Listeners) == 0 {
		return nil, errors.New("ingest: at least one listener is required")
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("ingest: negative worker count %d", cfg.Workers)
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.QueueDepth < 0 {
		return nil, fmt.Errorf("ingest: negative queue depth %d", cfg.QueueDepth)
	}
	if cfg.PerConnQueue == 0 {
		cfg.PerConnQueue = 256
	}
	if cfg.PerConnQueue < 0 {
		return nil, fmt.Errorf("ingest: negative per-connection queue %d", cfg.PerConnQueue)
	}
	if cfg.Overflow < OverflowBlock || cfg.Overflow > OverflowDisconnect {
		return nil, fmt.Errorf("ingest: unknown overflow policy %d", int(cfg.Overflow))
	}
	if cfg.FallbackClass < 0 || cfg.FallbackClass >= corpus.NumClasses {
		return nil, fmt.Errorf("ingest: fallback class %d out of range", int(cfg.FallbackClass))
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = DefaultMaxFrame
	}
	if cfg.Batch == 0 {
		cfg.Batch = DefaultBatch
	}
	if cfg.Batch < 0 {
		return nil, fmt.Errorf("ingest: negative batch size %d", cfg.Batch)
	}
	if cfg.NodeName == "" {
		cfg.NodeName = "node"
	}
	if strings.ContainsAny(cfg.NodeName, " \t\n=") {
		return nil, fmt.Errorf("ingest: node name %q contains whitespace or '='", cfg.NodeName)
	}
	if cfg.QuiesceTimeout == 0 {
		cfg.QuiesceTimeout = 5 * time.Second
	}
	if cfg.QuiesceTimeout < 0 {
		return nil, fmt.Errorf("ingest: negative quiesce timeout %s", cfg.QuiesceTimeout)
	}
	s := &Server{
		cfg:      cfg,
		queues:   make([]chan item, cfg.Workers),
		batches:  make([]*batchState, cfg.Workers),
		force:    make(chan struct{}),
		done:     make(chan struct{}),
		ckptStop: make(chan struct{}),
		conns:    make(map[net.Conn]struct{}),
		seenSeq:  cfg.ResumeSeq,
		ackedSeq: cfg.ResumeSeq,
	}
	s.overflow.Store(int32(cfg.Overflow))
	s.batchN.Store(int32(cfg.Batch))
	for i := range s.batches {
		s.batches[i] = &batchState{
			items: make([]item, 0, cfg.Batch),
			pkts:  make([]*packet.Packet, 0, cfg.Batch),
		}
	}
	per := cfg.QueueDepth / cfg.Workers
	if per < 1 {
		per = 1
	}
	for i := range s.queues {
		s.queues[i] = make(chan item, per)
	}
	s.sup = newSupervisor(cfg.Supervision, cfg.Workers,
		func() { s.health.to(StateDegraded) },
		func() { s.health.to(StateHealthy) })
	return s, nil
}

// State returns the server's lifecycle state.
func (s *Server) State() State { return s.health.state() }

// Start spawns the accept loops, the supervised workers, and the status
// listener, then marks the server healthy. It does not block.
func (s *Server) Start() error {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return errors.New("ingest: server already started")
	}
	s.started = true
	s.startTime = time.Now()
	s.mu.Unlock()

	for i := 0; i < s.cfg.Workers; i++ {
		s.workerWG.Add(1)
		go s.workerRun(i)
	}
	for _, l := range s.cfg.Listeners {
		s.acceptWG.Add(1)
		go s.acceptLoop(l)
	}
	if s.cfg.StatusListener != nil {
		s.statusWG.Add(1)
		go s.statusLoop(s.cfg.StatusListener)
	}
	if s.cfg.NodeCheckpoint != nil && s.cfg.NodeCheckpointEvery > 0 {
		s.ckptWG.Add(1)
		go s.checkpointLoop()
	}
	s.health.to(StateHealthy)
	return nil
}

// acceptLoop accepts data connections until its listener is closed.
func (s *Server) acceptLoop(l net.Listener) {
	defer s.acceptWG.Done()
	for {
		c, err := l.Accept()
		if err != nil {
			return // listener closed (drain) or fatal
		}
		s.mu.Lock()
		draining := s.shutdown
		if !draining {
			s.conns[c] = struct{}{}
			s.totalConns++
		}
		s.mu.Unlock()
		if draining {
			c.Close()
			continue
		}
		s.readerWG.Add(1)
		go s.serveConn(c)
	}
}

// deadlineConn applies the per-connection deadlines: the first read of
// every frame gets the idle deadline (time allowed between frames), each
// subsequent read the read deadline (progress required mid-frame).
type deadlineConn struct {
	net.Conn
	idle, read time.Duration
	atBoundary bool
}

func (d *deadlineConn) Read(p []byte) (int, error) {
	timeout := d.read
	if d.atBoundary {
		timeout = d.idle
		d.atBoundary = false
	}
	if timeout > 0 {
		if err := d.Conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return 0, err
		}
	}
	return d.Conn.Read(p)
}

// serveConn reads frames off one connection until EOF, error, deadline
// expiry, or a disconnect-policy trigger.
func (s *Server) serveConn(c net.Conn) {
	defer s.readerWG.Done()
	defer func() {
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()

	credits := make(chan struct{}, s.cfg.PerConnQueue)
	dc := &deadlineConn{Conn: c, idle: s.cfg.IdleTimeout, read: s.cfg.ReadTimeout}
	fr := NewFrameReader(dc, s.cfg.MaxFrame, func() {
		s.mu.Lock()
		s.received++
		s.quarantined++
		s.mu.Unlock()
	})
	for {
		dc.atBoundary = true
		pkt, err := fr.Next()
		if err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				s.mu.Lock()
				s.timedOut++
				s.mu.Unlock()
			}
			return
		}
		// The shared gate covers the count-dedup-enqueue window of this one
		// frame (not the blocking read above), so a quiesced checkpoint sees
		// every received packet either fully enqueued or not at all.
		seq := fr.LastSeq()
		s.gate.RLock()
		s.mu.Lock()
		s.received++
		dup := seq != 0 && seq <= s.seenSeq
		if dup {
			// A replayed frame whose effects are already in the node's state:
			// discard before the engine, accounted as shed so the transport
			// law (Received == Admitted + Quarantined + Shed) stays exact.
			s.shed++
			s.deduped++
		} else if seq != 0 {
			s.seenSeq = seq
		}
		s.mu.Unlock()
		ok := true
		if !dup {
			ok = s.enqueue(pkt, credits)
		}
		s.gate.RUnlock()
		if !ok {
			return
		}
	}
}

// workerFor routes a packet to its worker by flow ID — the same
// full-word reduction ParallelEngine uses for shards — so one flow's
// packets are always processed by one worker, in order.
func (s *Server) workerFor(p *packet.Packet) chan item {
	id := flow.IDOf(p.Tuple)
	return s.queues[binary.BigEndian.Uint64(id[:8])%uint64(len(s.queues))]
}

// enqueue applies the backpressure policy. It reports whether the
// connection should stay open. Every packet that enters here is counted
// exactly once: Admitted when queued, Shed otherwise.
func (s *Server) enqueue(pkt packet.Packet, credits chan struct{}) bool {
	q := s.workerFor(&pkt)
	it := item{pkt: pkt, credits: credits}
	switch s.OverflowPolicy() {
	case OverflowBlock:
		select {
		case credits <- struct{}{}:
		case <-s.force:
			s.countShed()
			return false
		}
		select {
		case q <- it:
			s.countAdmitted()
			return true
		case <-s.force:
			<-credits
			s.countShed()
			return false
		}
	default: // OverflowShed, OverflowDisconnect
		select {
		case credits <- struct{}{}:
		default:
			return s.shedOne()
		}
		select {
		case q <- it:
			s.countAdmitted()
			return true
		default:
			<-credits
			return s.shedOne()
		}
	}
}

// shedOne accounts one packet dropped by backpressure with its synthetic
// fallback verdict, and reports whether the connection survives the
// policy.
func (s *Server) shedOne() bool {
	s.mu.Lock()
	s.shed++
	disconnect := s.OverflowPolicy() == OverflowDisconnect
	if disconnect {
		s.disconnected++
	}
	s.mu.Unlock()
	return !disconnect
}

func (s *Server) countAdmitted() {
	s.mu.Lock()
	s.admitted++
	s.mu.Unlock()
}

func (s *Server) countShed() {
	s.mu.Lock()
	s.shed++
	s.mu.Unlock()
}

// workerRun is one supervised worker slot. A panic while processing a
// packet is recovered, counted, and answered with a delayed restart of
// the same slot; the WaitGroup is released only when the slot exits
// normally (its queue closed and drained).
func (s *Server) workerRun(id int) {
	defer func() {
		if r := recover(); r != nil {
			backoff := s.sup.recordPanic()
			go func() {
				t := time.NewTimer(backoff)
				select {
				case <-t.C:
				case <-s.force:
					t.Stop()
				}
				s.workerRun(id)
			}()
			return
		}
		s.workerWG.Done()
	}()
	bs, q := s.batches[id], s.queues[id]
	for {
		if len(bs.items) == 0 && !s.gatherBatch(bs, q) {
			return
		}
		s.runBatch(bs)
	}
}

// gatherBatch blocks for one packet, then takes whatever else is already
// queued, up to the batch bound, without waiting. It reports false when
// the queue is closed and drained.
func (s *Server) gatherBatch(bs *batchState, q chan item) bool {
	it, ok := <-q
	if !ok {
		return false
	}
	bs.items = append(bs.items, it)
	for len(bs.items) < s.Batch() {
		select {
		case it, ok := <-q:
			if !ok {
				// Process what we have; the next gather sees the close.
				return true
			}
			bs.items = append(bs.items, it)
		default:
			return true
		}
	}
	return true
}

// runBatch pre-processes the gathered items and submits them to the
// engine in one ProcessBatch call. Each item is claimed (next advanced)
// before its PreProcess hook runs, and the pending packet slice is claimed
// before the engine call, so a panic loses exactly the work that crashed —
// the restarted worker resumes the rest of the batch. Connection credits
// are released only when the whole batch is done, keeping the per-conn
// bound on genuinely unprocessed packets.
func (s *Server) runBatch(bs *batchState) {
	for bs.next < len(bs.items) {
		it := &bs.items[bs.next]
		bs.next++
		if t := int64(it.pkt.Time); t > s.maxSeen.Load() {
			s.maxSeen.Store(t)
		}
		if s.cfg.PreProcess != nil {
			s.cfg.PreProcess(&it.pkt)
		}
		bs.pkts = append(bs.pkts, &it.pkt)
	}
	pkts := bs.pkts
	bs.pkts = bs.pkts[:0]
	if len(pkts) > 0 {
		if failed, err := s.cfg.Engine.ProcessBatch(pkts); err != nil || failed > 0 {
			if failed < 1 {
				failed = 1
			}
			s.mu.Lock()
			s.engineErrors += failed
			s.mu.Unlock()
		}
		s.sup.recordSuccess()
	}
	for i := range bs.items {
		<-bs.items[i].credits
	}
	s.processed.Add(int64(len(bs.items)))
	bs.items = bs.items[:0]
	bs.next = 0
}

// Shutdown drains the server: stop accepting, let connected clients
// finish (until ctx expires, then force-close them), drain the queues
// through the workers, flush every pending flow, and hand the final
// checkpoint to OnFinalCheckpoint. The health state walks
// draining → stopped. Shutdown is idempotent; concurrent calls share the
// first invocation's result.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		// Wait for the first Shutdown to finish, then share its error.
		<-s.done
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.shutdownErr
	}
	s.shutdown = true
	s.mu.Unlock()

	s.health.to(StateDraining)
	var errs []error

	// 0. Stop periodic checkpoints: the drain writes its own final one,
	// and a quiesce racing the queue close would deadlock.
	close(s.ckptStop)
	s.ckptWG.Wait()

	// 1. Stop accepting.
	for _, l := range s.cfg.Listeners {
		if err := l.Close(); err != nil {
			errs = append(errs, fmt.Errorf("ingest: close listener: %w", err))
		}
	}
	s.acceptWG.Wait()

	// 2. Let connected clients finish naturally; force-close stragglers
	// when the drain deadline expires (their unread frames are lost, and
	// blocked enqueues abort into Shed so the accounting stays exact).
	readersDone := make(chan struct{})
	go func() { s.readerWG.Wait(); close(readersDone) }()
	select {
	case <-readersDone:
	case <-ctx.Done():
		errs = append(errs, fmt.Errorf("ingest: drain deadline: %w", ctx.Err()))
		s.forceOnce.Do(func() { close(s.force) })
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-readersDone
	}

	// 3. No reader can enqueue anymore: close the queues and wait for the
	// workers (including any mid-backoff restart) to drain them.
	for _, q := range s.queues {
		close(q)
	}
	s.workerWG.Wait()

	// 4. Flush every still-pending flow at a virtual time safely past the
	// last packet, then persist the final checkpoint.
	now := time.Duration(s.maxSeen.Load()) + time.Minute
	if _, err := s.cfg.Engine.FlushAll(now); err != nil {
		errs = append(errs, fmt.Errorf("ingest: drain flush: %w", err))
	}
	if s.cfg.OnFinalCheckpoint != nil {
		s.cfg.OnFinalCheckpoint(s.cfg.Engine.ExportCheckpoint())
	}
	if s.cfg.NodeCheckpoint != nil {
		s.mu.Lock()
		seq := s.seenSeq
		s.mu.Unlock()
		payload := EncodeNodeCheckpoint(seq, s.cfg.Engine.ExportCheckpoint(), s.cfg.Engine.ExportPending())
		if err := s.cfg.NodeCheckpoint(payload); err != nil {
			errs = append(errs, fmt.Errorf("ingest: final node checkpoint: %w", err))
		} else {
			s.mu.Lock()
			if seq > s.ackedSeq {
				s.ackedSeq = seq
			}
			s.mu.Unlock()
		}
	}

	if s.cfg.StatusListener != nil {
		if err := s.cfg.StatusListener.Close(); err != nil {
			errs = append(errs, fmt.Errorf("ingest: close status listener: %w", err))
		}
	}
	s.statusWG.Wait()
	s.health.to(StateStopped)

	err := errors.Join(errs...)
	s.mu.Lock()
	s.shutdownErr = err
	s.mu.Unlock()
	close(s.done)
	return err
}

// Stats returns a snapshot of the ingest counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		ActiveConns:  len(s.conns),
		TotalConns:   s.totalConns,
		TimedOut:     s.timedOut,
		Disconnected: s.disconnected,
		Received:     s.received,
		Admitted:     s.admitted,
		Quarantined:  s.quarantined,
		Shed:         s.shed,
		Deduped:      s.deduped,
		SeenSeq:      s.seenSeq,
		AckedSeq:     s.ackedSeq,
		EngineErrors: s.engineErrors,
	}
	if s.cfg.NodeCheckpoint == nil {
		st.AckedSeq = st.SeenSeq
	}
	s.mu.Unlock()
	st.State = s.health.state()
	st.Supervisor = s.sup.stats()
	return st
}

// statusLoop accepts status connections and serves each in its own
// goroutine (see statusconn.go): a slow flow export must not make health
// probes queue behind it.
func (s *Server) statusLoop(l net.Listener) {
	defer s.statusWG.Done()
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		s.statusWG.Add(1)
		go s.serveStatusConn(c)
	}
}

// StatusText renders the health state and counters as the plain-text
// document the status listener serves: the human-oriented dump followed
// by one machine-readable STATUS line (see status.go).
func (s *Server) StatusText() string {
	st := s.Stats()
	es := s.cfg.Engine.Stats()
	breaker := "closed"
	if st.Supervisor.BreakerOpen {
		breaker = "open"
	}
	return fmt.Sprintf(
		"state: %s\n"+
			"conns: %d active / %d total (timed-out %d, disconnected %d)\n"+
			"received: %d\nadmitted: %d\nquarantined: %d\nshed: %d\n"+
			"engine-errors: %d\n"+
			"workers: %d (panics %d, restarts %d, crash-streak %d, breaker %s)\n"+
			"engine: classified %d, pending %d, fallback %d, shed %d, dropped %d, degraded-shards %d/%d\n"+
			"fallback-class: %s\n"+
			"%s\n",
		st.State,
		st.ActiveConns, st.TotalConns, st.TimedOut, st.Disconnected,
		st.Received, st.Admitted, st.Quarantined, st.Shed,
		st.EngineErrors,
		st.Supervisor.Workers, st.Supervisor.Panics, st.Supervisor.Restarts,
		st.Supervisor.ConsecutiveCrashes, breaker,
		es.Classified, es.Pending, es.Fallback, es.Shed, es.Dropped,
		es.Degraded, s.cfg.Engine.Shards(),
		corpus.ClassNames()[s.cfg.FallbackClass],
		s.nodeStatusFrom(st, es).StatusLine())
}
