package ingest

import (
	"bufio"
	"context"
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
	// Batch bounds how many packets one reader-to-worker message, and so
	// one ProcessBatch call, carries. A reader hands over what one socket
	// read delivered without waiting for more, so a lightly loaded server
	// keeps per-packet latency while a saturated one amortizes the
	// hand-off over the batch. Zero defaults to DefaultBatch.
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
	// supervisor, exactly like a panic in engine code would. The packet's
	// Payload aliases the connection's read buffer and is valid only
	// during the call: a hook that keeps payload bytes must copy them.
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

// workerSlot is the in-progress message of one worker slot. It lives on
// the Server rather than the worker's stack so a supervisor restart resumes
// the message mid-way: only the packet that crashed the worker is lost.
type workerSlot struct {
	cur *subBatch
	// next indexes the first packet not yet claimed for pre-processing;
	// cur.items[:kept] already passed PreProcess and await the engine.
	next, kept int
}

// Server is the framed packet-ingest server.
type Server struct {
	cfg     Config
	health  healthFSM
	sup     *supervisor
	queues  []workQueue
	slots   []workerSlot
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

	// batchPool recycles reader-to-worker messages (see reader.go).
	batchPool sync.Pool
	// onRecycle, when non-nil, is handed every stretch of read buffer that
	// is about to be reused. Tests set it before Start to poison recycled
	// bytes, so a payload alias kept too long shows.
	onRecycle func(stale []byte)

	// gate pauses frame intake for a quiesced checkpoint or flow export:
	// readers hold it shared across the count-dedup-enqueue window of one
	// read's frames (never across the blocking read), a checkpoint holds it
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
		queues:   make([]workQueue, cfg.Workers),
		slots:    make([]workerSlot, cfg.Workers),
		force:    make(chan struct{}),
		done:     make(chan struct{}),
		ckptStop: make(chan struct{}),
		conns:    make(map[net.Conn]struct{}),
		seenSeq:  cfg.ResumeSeq,
		ackedSeq: cfg.ResumeSeq,
	}
	s.overflow.Store(int32(cfg.Overflow))
	s.batchN.Store(int32(cfg.Batch))
	per := cfg.QueueDepth / cfg.Workers
	if per < 1 {
		per = 1
	}
	for i := range s.queues {
		s.queues[i] = workQueue{ch: make(chan *subBatch, per), space: newBudget(per)}
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
	slot, q := &s.slots[id], &s.queues[id]
	for {
		if slot.cur == nil {
			m, ok := <-q.ch
			if !ok {
				return
			}
			q.space.give(len(m.items))
			slot.cur = m
		}
		s.runBatch(slot)
	}
}

// runBatch pre-processes one message's packets and submits them to the
// engine in one ProcessBatch call. Each packet is claimed (next advanced)
// before its PreProcess hook runs, and the survivors are claimed before the
// engine call, so a panic loses exactly the work that crashed — the
// restarted worker resumes the rest of the message, and it is the restarted
// worker that releases the message's credits and read buffer. Credits are
// released only when the whole message is done, keeping the per-conn bound
// on genuinely unprocessed packets.
func (s *Server) runBatch(slot *workerSlot) {
	m := slot.cur
	for slot.next < len(m.items) {
		i := slot.next
		slot.next++
		if t := int64(m.items[i].Pkt.Time); t > s.maxSeen.Load() {
			s.maxSeen.Store(t)
		}
		if s.cfg.PreProcess != nil {
			s.cfg.PreProcess(&m.items[i].Pkt)
		}
		if slot.kept != i {
			m.items[slot.kept] = m.items[i]
		}
		slot.kept++
	}
	ready := m.items[:slot.kept]
	slot.kept = 0
	if len(ready) > 0 {
		if failed, err := s.cfg.Engine.ProcessBatch(ready); err != nil || failed > 0 {
			if failed < 1 {
				failed = 1
			}
			s.mu.Lock()
			s.engineErrors += failed
			s.mu.Unlock()
		}
		s.sup.recordSuccess()
	}
	n := len(m.items)
	slot.cur, slot.next = nil, 0
	m.conn.credits.give(n)
	m.conn.release(m.chunk)
	s.processed.Add(int64(n))
	s.putSubBatch(m)
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
	for i := range s.queues {
		close(s.queues[i].ch)
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
