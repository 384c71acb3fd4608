// Command iustitia-serve runs the networked ingest daemon: a framed
// packet server (TCP and/or unix socket) feeding a sharded online
// classification engine, with backpressure, supervised workers, a
// plain-text status endpoint, and checkpointed durable state.
//
// Serve on TCP with a status endpoint and periodic checkpoints:
//
//	iustitia-serve -model model.json -listen 127.0.0.1:9301 \
//	    -status 127.0.0.1:9302 -checkpoint state.ckpt
//
// Stream a trace into it from another host (or the same one):
//
//	iustitia-trace -flows 2000 -connect 127.0.0.1:9301
//
// The first SIGINT/SIGTERM drains gracefully: stop accepting, flush
// pending flows, write a final checkpoint. A second signal forces
// immediate exit, skipping the final checkpoint. -resume restores a
// previous run's checkpoint (same -shards), falling back to a cold
// start, with a warning, if the checkpoint is unusable.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof debug endpoint
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"iustitia/internal/core"
	"iustitia/internal/corpus"
	"iustitia/internal/entest"
	"iustitia/internal/flow"
	"iustitia/internal/ingest"
	"iustitia/internal/ops"
	"iustitia/internal/persist"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "iustitia-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen    = flag.String("listen", "", "TCP listen address for framed packet ingest (e.g. 127.0.0.1:9301)")
		unixSock  = flag.String("unix", "", "unix socket path for framed packet ingest")
		status    = flag.String("status", "", "TCP listen address for the plain-text status endpoint")
		modelPath = flag.String("model", "model.json", "trained model path (JSON)")
		loadModel = flag.String("load-model", "", "load the model from a binary snapshot instead of -model JSON")
		buffer    = flag.Int("b", 32, "payload bytes buffered per flow before classification")
		idleFlush = flag.Duration("idle-flush", 2*time.Second, "classify flows idle this long in packet time (0 = only at drain)")
		shards    = flag.Int("shards", 4, "engine shards (flow-parallel classification)")
		workers   = flag.Int("workers", 2, "supervised ingest workers")
		batch     = flag.Int("batch", 0, "max packets per engine submission batch (0 = default)")
		replicate = flag.Bool("replicate-model", true, "give each shard its own classifier replica (no shared model-pointer word on the hot path); hot-swap flips every replica under the frame gate")
		pprofAddr = flag.String("pprof", "", "TCP listen address for the net/http/pprof debug endpoint (enables mutex and block profiling)")

		queueDepth  = flag.Int("ingest-queue", 1024, "total packets queued between readers and workers")
		connQueue   = flag.Int("conn-queue", 256, "unprocessed packets one connection may hold")
		overflow    = flag.String("overflow", "block", "backpressure policy at full queues: block|shed|disconnect")
		readTimeout = flag.Duration("read-timeout", 30*time.Second, "per-read deadline inside a frame (0 = none)")
		idleTimeout = flag.Duration("idle-timeout", 5*time.Minute, "deadline between frames on a connection (0 = none)")
		maxFrame    = flag.Int("max-frame", 0, "max frame payload bytes a header may declare (0 = default)")

		stream  = flag.Bool("stream", false, "constant-memory stream mode: sketch per-flow entropy instead of buffering b payload bytes")
		sketch  = flag.String("sketch", "cc", "stream-mode sketch backend: cc (compressed counting, the measured default) | lall (reservoir AMS; ~10x slower and ~10x larger per flow)")
		epsilon = flag.Float64("epsilon", 0.25, "stream-mode relative error bound ε in (0,1)")
		delta   = flag.Float64("delta", 0.25, "stream-mode failure probability δ in (0,1)")

		maxPending = flag.Int("max-pending", 0, "cap on concurrently buffered flows per shard (0 = unbounded)")
		evict      = flag.String("evict", "oldest", "policy at the pending cap: oldest|partial|shed")
		fallback   = flag.String("fallback", "text", "fallback class for shed flows and tolerated failures: text|binary|encrypted")
		tolerate   = flag.Bool("tolerate", true, "route classifier failures to the fallback class instead of surfacing errors")
		cdbCap     = flag.Int("cdb-cap", 0, "hard cap on classification-database records per shard (0 = unbounded)")

		nodeName   = flag.String("node-name", "", "cluster node name on the machine-readable STATUS line (default \"node\")")
		config     = flag.String("config", "", "live-reconfig file re-read on SIGHUP or the RELOAD admin verb (k=v lines: overflow, batch, max_pending, evict, idle_flush)")
		checkpoint = flag.String("checkpoint", "", "write engine checkpoints to this path (periodic and at drain)")
		ckptEvery  = flag.Duration("checkpoint-interval", 30*time.Second, "wall-clock interval between periodic checkpoints (with -checkpoint)")
		resume     = flag.String("resume", "", "restore engine state from this checkpoint before serving (cold start if unusable)")
		drainTime  = flag.Duration("drain-timeout", 30*time.Second, "how long a graceful drain waits for connected clients")
	)
	flag.Parse()

	if *listen == "" && *unixSock == "" {
		return fmt.Errorf("no listener: pass -listen and/or -unix")
	}
	overflowPolicy, err := ingest.ParseOverflowPolicy(*overflow)
	if err != nil {
		return err
	}
	evictPolicy, err := flow.ParseEvictPolicy(*evict)
	if err != nil {
		return err
	}
	fbClass, err := parseClass(*fallback)
	if err != nil {
		return err
	}

	// The model is loaded as a bare core.Classifier: the ops manager flips
	// its atomic model payload on SWAP-MODEL, and the engine classifies
	// through the same pointer, so a hot-swap needs no engine rebuild.
	var clf *core.Classifier
	if *loadModel != "" {
		payload, err := persist.LoadFile(*loadModel, persist.KindClassifier)
		if err != nil {
			return err
		}
		clf, err = core.DecodeSnapshot(payload)
		if err != nil {
			return err
		}
	} else {
		mf, err := os.Open(*modelPath)
		if err != nil {
			return err
		}
		clf, err = core.Load(mf)
		mf.Close()
		if err != nil {
			return err
		}
	}

	// By default every shard gets its own classifier replica, so the hot
	// path never shares the atomic model-pointer word across cores; the
	// ReplicaSet is then the ops model surface, and SWAP-MODEL flips all
	// replicas atomically under the ingest frame gate.
	// -replicate-model=false restores the single shared classifier.
	var modelSurface ops.ModelSurface = clf
	var shardClassifiers []flow.Classifier
	if *replicate {
		rs, err := core.NewReplicaSet(clf, *shards)
		if err != nil {
			return err
		}
		shardClassifiers = make([]flow.Classifier, *shards)
		for i := range shardClassifiers {
			shardClassifiers[i] = rs.Replica(i)
		}
		modelSurface = rs
	}

	engineCfg := flow.EngineConfig{
		BufferSize:    *buffer,
		Classifier:    clf,
		IdleFlush:     *idleFlush,
		MaxPending:    *maxPending,
		Eviction:      evictPolicy,
		FallbackClass: fbClass,
		Faults:        flow.FaultPolicy{Tolerate: *tolerate},
		// A long-running node reads neither Label nor FillStats: keep no
		// per-flow results (verdicts live in the CDB, which purges).
		LabelCap: -1,
		CDB: flow.CDBConfig{
			PurgeOnClose:  true,
			PurgeInactive: true,
			N:             4,
			MaxRecords:    *cdbCap,
		},
	}
	var streamMode string
	if *stream {
		kind, err := entest.ParseSketchKind(*sketch)
		if err != nil {
			return err
		}
		engineCfg.Stream = &flow.StreamConfig{
			Epsilon: *epsilon,
			Delta:   *delta,
			Sketch:  kind,
		}
		streamMode = kind.String()
	}
	engine, err := flow.NewParallelEngine(engineCfg, *shards, shardClassifiers)
	if err != nil {
		return err
	}
	if *stream {
		fmt.Printf("stream mode: %s sketch, ε=%v δ=%v, %d counters per flow (vs %d buffered bytes)\n",
			streamMode, *epsilon, *delta, engine.StreamCounters(), *buffer)
	}

	// Resume from a prior checkpoint when asked. Restore into a throwaway
	// engine first so a checkpoint that fails half-way through its shards
	// cannot leave the serving engine partially restored: any unusable
	// checkpoint is a logged warning and a clean cold start.
	var resumeSeq uint64
	if *resume != "" {
		if restored, seq, err := resumeEngine(engineCfg, *shards, shardClassifiers, *resume); err != nil {
			fmt.Fprintf(os.Stderr,
				"iustitia-serve: warning: cannot resume from %s (%v); cold start\n",
				*resume, err)
		} else {
			engine = restored
			resumeSeq = seq
			s := engine.Stats()
			fmt.Printf("resumed from %s: %d classified flows, %d CDB records\n",
				*resume, s.Classified, s.CDB.Size)
			if seq > 0 {
				// A node checkpoint carries the router's delivery watermark:
				// replayed frames at or below it will be deduplicated.
				fmt.Printf("resume watermark: seq %d\n", seq)
			}
		}
	}

	// Signals are armed early so the ops DRAIN verb can inject a SIGTERM:
	// an admin-driven drain and an operator ^C share one shutdown path.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)

	mgr, err := ops.NewManager(ops.Config{
		Engine:     engine,
		Classifier: modelSurface,
		Classes:    corpus.NumClasses,
		BufferSize: *buffer,
		Stream:     *stream,
		ConfigPath: *config,
		Drain: func() {
			select {
			case sigCh <- syscall.SIGTERM:
			default: // a drain is already in flight
			}
		},
	})
	if err != nil {
		return err
	}
	reload := func() {
		st, err := mgr.ReloadConfig()
		if err != nil {
			fmt.Fprintln(os.Stderr, "iustitia-serve: reload:", err)
			return
		}
		fmt.Printf("reloaded %s: applied %s\n", *config, strings.Join(st.Keys(), ","))
	}

	var listeners []net.Listener
	if *listen != "" {
		l, err := net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
		fmt.Printf("listening on %s\n", l.Addr())
		listeners = append(listeners, l)
	}
	if *unixSock != "" {
		// A previous unclean exit may have left the socket file behind; a
		// fresh listen would fail on it.
		os.Remove(*unixSock)
		l, err := net.Listen("unix", *unixSock)
		if err != nil {
			return err
		}
		fmt.Printf("listening on unix socket %s\n", *unixSock)
		listeners = append(listeners, l)
	}
	var statusLn net.Listener
	if *status != "" {
		statusLn, err = net.Listen("tcp", *status)
		if err != nil {
			return err
		}
		fmt.Printf("status on %s\n", statusLn.Addr())
	}
	if *pprofAddr != "" {
		// Contention profiling is off by default in the runtime; a node
		// serving a pprof endpoint is being profiled, so sample mutex and
		// block events at rates cheap enough to leave on under load.
		runtime.SetMutexProfileFraction(5)
		runtime.SetBlockProfileRate(100_000)
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return err
		}
		fmt.Printf("pprof on http://%s/debug/pprof/\n", pln.Addr())
		go func() { _ = http.Serve(pln, nil) }()
	}

	// Track when the last checkpoint landed so the STATUS line can carry
	// its age: a cluster router flags a node whose durability has stalled.
	var ckptMu sync.Mutex
	var lastCkpt time.Time
	if *resume != "" {
		if fi, err := os.Stat(*resume); err == nil {
			lastCkpt = fi.ModTime()
		}
	}
	ckptSaved := func() {
		ckptMu.Lock()
		lastCkpt = time.Now()
		ckptMu.Unlock()
	}

	srvCfg := ingest.Config{
		Engine:         engine,
		Listeners:      listeners,
		StatusListener: statusLn,
		Workers:        *workers,
		Batch:          *batch,
		QueueDepth:     *queueDepth,
		PerConnQueue:   *connQueue,
		Overflow:       overflowPolicy,
		FallbackClass:  fbClass,
		ReadTimeout:    *readTimeout,
		IdleTimeout:    *idleTimeout,
		MaxFrame:       *maxFrame,
		NodeName:       *nodeName,
		StreamMode:     streamMode,
		ResumeSeq:      resumeSeq,
		AdminHandler:   mgr.HandleAdmin,
		CheckpointTime: func() time.Time {
			ckptMu.Lock()
			defer ckptMu.Unlock()
			return lastCkpt
		},
	}
	if *checkpoint != "" {
		// Periodic and final durability both flow through the server's
		// quiesced node-checkpoint path, so every checkpoint on disk is a
		// consistent (watermark, engine, pending) triple — never an engine
		// snapshot torn mid-batch. A successful save advances acked_seq on
		// the STATUS line, telling a cluster router it may trim its replay
		// journal.
		srvCfg.NodeCheckpoint = func(payload []byte) error {
			if err := persist.SaveFile(*checkpoint, persist.KindNodeCheckpoint, payload); err != nil {
				fmt.Fprintln(os.Stderr, "iustitia-serve: checkpoint:", err)
				return err
			}
			ckptSaved()
			return nil
		}
		srvCfg.NodeCheckpointEvery = *ckptEvery
		srvCfg.OnFinalCheckpoint = func(snapshot []byte) {
			// The final node checkpoint (written right after this hook)
			// overwrites the path with the drain-complete state; this
			// message is the operator-visible drain marker.
			fmt.Printf("final checkpoint saved to %s\n", *checkpoint)
		}
	}
	srv, err := ingest.NewServer(srvCfg)
	if err != nil {
		return err
	}
	// Attach before Start so an admin SET arriving with the first packets
	// never races the wiring.
	mgr.AttachServer(srv)
	if err := srv.Start(); err != nil {
		return err
	}

	// SIGHUP re-reads the -config file and keeps serving. The first
	// INT/TERM starts a graceful drain (flush + final checkpoint); a second
	// forces immediate exit and says what was skipped.
	var sig os.Signal
	for {
		sig = <-sigCh
		if sig == syscall.SIGHUP {
			reload()
			continue
		}
		break
	}
	fmt.Printf("received %v: draining (second signal forces immediate exit)\n", sig)
	go func() {
		for {
			sig2 := <-sigCh
			if sig2 == syscall.SIGHUP {
				// Too late to retune, but not a reason to die mid-drain.
				continue
			}
			fmt.Fprintf(os.Stderr, "iustitia-serve: second %v: forcing immediate exit; final checkpoint skipped\n", sig2)
			os.Exit(130)
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), *drainTime)
	defer cancel()
	drainErr := srv.Shutdown(ctx)
	// An in-flight swap probation must settle before exit, so a rollback
	// decision is never lost to process teardown.
	mgr.Close()
	if *unixSock != "" {
		os.Remove(*unixSock)
	}

	st := srv.Stats()
	es := engine.Stats()
	fmt.Printf("drained: received %d, admitted %d, quarantined %d, shed %d over %d connections\n",
		st.Received, st.Admitted, st.Quarantined, st.Shed, st.TotalConns)
	fmt.Printf("engine: classified %d flows, fallback %d, dropped %d; queues: text=%d binary=%d encrypted=%d; CDB size %d\n",
		es.Classified, es.Fallback, es.Dropped,
		es.QueueCounts[corpus.Text], es.QueueCounts[corpus.Binary],
		es.QueueCounts[corpus.Encrypted], es.CDB.Size)
	if st.Supervisor.Panics > 0 {
		fmt.Printf("supervision: %d worker panics, %d restarts\n",
			st.Supervisor.Panics, st.Supervisor.Restarts)
	}
	return drainErr
}

// resumeEngine builds a fresh engine and restores a checkpoint into it,
// so the caller's serving engine is replaced only on full success. Both
// checkpoint kinds resume: a bare engine snapshot
// (KindParallelCheckpoint) restores classified state only, while a node
// checkpoint (KindNodeCheckpoint) also restores the in-flight pending
// flows and returns the delivery-sequence watermark to prime dedup with.
func resumeEngine(cfg flow.EngineConfig, shards int, classifiers []flow.Classifier, path string) (*flow.ParallelEngine, uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	kind, payload, err := persist.Decode(data)
	if err != nil {
		return nil, 0, err
	}
	engine, err := flow.NewParallelEngine(cfg, shards, classifiers)
	if err != nil {
		return nil, 0, err
	}
	switch kind {
	case persist.KindParallelCheckpoint:
		if err := engine.ImportCheckpoint(payload); err != nil {
			return nil, 0, err
		}
		return engine, 0, nil
	case persist.KindNodeCheckpoint:
		seq, ckpt, pending, err := ingest.DecodeNodeCheckpoint(payload)
		if err != nil {
			return nil, 0, err
		}
		if err := engine.ImportCheckpoint(ckpt); err != nil {
			return nil, 0, err
		}
		if _, err := engine.ImportPending(pending); err != nil {
			return nil, 0, err
		}
		return engine, seq, nil
	default:
		return nil, 0, fmt.Errorf("checkpoint kind %d is not resumable", kind)
	}
}

// parseClass maps a flag value to its class.
func parseClass(s string) (corpus.Class, error) {
	for c, name := range corpus.ClassNames() {
		if s == name {
			return corpus.Class(c), nil
		}
	}
	return 0, fmt.Errorf("unknown class %q (want text|binary|encrypted)", s)
}
