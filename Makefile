# Convenience targets for the Iustitia reproduction.

GO ?= go

.PHONY: all build test race check cluster-soak ops-soak bench bench-json bench-smoke bench-test experiments examples fuzz snapshot-compat clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The pre-merge gate: static checks, the race detector, the nested
# benchmark module's own tests, the hot-path allocation-regression and
# worst-case-time gates (run without -race, which skews both), the
# networked-ingest chaos soak, the client's reconnect-ordering fence
# hammered under the race detector, a smoke of the journal benchmark
# (ns/op must stay flat in the cap), the cluster and ops chaos soaks, and
# a short fuzz smoke over the byte-level parsers and snapshot decoders.
# Slower than `test`, run before pushing.
check:
	$(GO) vet ./...
	$(GO) test -race ./...
	$(MAKE) bench-test
	$(GO) test -run 'TestVectorAllocRegression|TestZerosWithinBudget|TestClassifyAllocRegression|TestStreamWriteAllocFree|TestBatchAllocRegression|TestRouteAllocRegression|TestIngestAllocRegression' -count=1 ./internal/entropy ./internal/core ./internal/entest ./internal/flow ./internal/cluster ./internal/ingest
	$(GO) test -run 'TestChaosConnSoak' -count=1 ./internal/ingest
	$(GO) test -race -run 'TestClientReconnectFence' -count=20 ./internal/ingest
	$(GO) test -run '^$$' -bench 'BenchmarkSendToNodeFullJournal' -benchtime=200x ./internal/cluster
	$(MAKE) cluster-soak
	$(MAKE) ops-soak
	$(GO) test -fuzz=FuzzStrip -fuzztime=5s ./internal/appheader
	$(GO) test -fuzz=FuzzReadTrace -fuzztime=5s ./internal/packet
	$(GO) test -fuzz=FuzzRead -fuzztime=5s ./internal/pcap
	$(GO) test -fuzz='^FuzzFrame$$' -fuzztime=5s ./internal/ingest
	$(GO) test -fuzz=FuzzFrameAliasVsCopy -fuzztime=5s ./internal/ingest
	$(GO) test -fuzz=FuzzDifferentialPackedVsLegacy -fuzztime=5s ./internal/entropy
	$(GO) test -fuzz=FuzzDecodeSnapshot -fuzztime=5s ./internal/persist
	$(GO) test -fuzz=FuzzImportCheckpoint -fuzztime=5s ./internal/persist

# The cluster chaos soaks (DESIGN.md §12): real router + serve binaries,
# deterministic seeds. TestClusterSoak runs a SIGKILL crash-loop and a
# rolling checkpoint handoff under a frame-tearing transport;
# TestMembershipChurnSoak streams load while live-adding a node,
# SIGKILLing another mid-stream (journal replay recovers the unacked
# packets), and removing the newcomer. Both assert the cluster-wide
# conservation law and zero verdict loss. Skipped under -short.
cluster-soak:
	$(GO) test -run 'TestClusterSoak|TestMembershipChurnSoak' -count=1 ./cmd/iustitia-router

# The ops-chaos soak (DESIGN.md §14): one real serve node behind a real
# router, operated under fire — live reconfig over SET/RELOAD/SIGHUP
# mid-burst, an atomic model hot-swap proven verdict-for-verdict against
# an in-process replay that swaps at the same boundary, rejected swaps
# (corrupt blob, metadata mismatch) that leave the old model serving, a
# breaker-tripping candidate auto-rolled-back during probation, and a
# SIGKILL mid-swap-upload followed by a checkpoint resume. Skipped under
# -short.
ops-soak:
	$(GO) test -run 'TestOpsChaosSoak' -count=1 ./cmd/iustitia-router

# One benchmark per paper table/figure plus ablations and micro-benches.
bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable hot-path numbers (BENCH_entropy.json): entropy-vector
# extraction ns/op, B/op, allocs/op at 256B/1KiB/4KiB on ten widths and at
# the 32 B serve default, plus flow.ParallelEngine flows/sec over shards
# 1/2/4/8. The committed file is the perf trajectory tracked across PRs.
bench-json:
	$(GO) run ./cmd/iustitia-benchjson -out BENCH_entropy.json

# The benchmark (BENCHMARK.json) lives in the nested module bench/, which
# `go build ./...` and `go test ./...` at the root neither build nor run:
# this is what catches a change to the surface bench/sut.go compiles
# against.
bench-test:
	cd bench && $(GO) test ./...

# CI smoke: compile and run every benchmark exactly once, so a benchmark
# that panics or regresses into an error fails the pipeline without
# paying for full measurement runs.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Print every evaluation table/figure as text (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/iustitia-bench -experiment all -scale default

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/qos-router
	$(GO) run ./examples/ids-offload
	$(GO) run ./examples/forensics
	$(GO) run ./examples/streaming

# Short fuzzing passes over the byte-level parsers, the frame differential
# (the server's aliasing decode vs the copying FrameReader), the entropy
# differential (refinement vs string-keyed oracle) and every snapshot
# decoder (frame, tree, SVM, classifier, CDB, checkpoint). Every target
# `check` smokes for 5 s is here for 30 s, under the same name.
fuzz:
	$(GO) test -fuzz=FuzzStrip -fuzztime=30s ./internal/appheader
	$(GO) test -fuzz=FuzzReadTrace -fuzztime=30s ./internal/packet
	$(GO) test -fuzz=FuzzRead -fuzztime=30s ./internal/pcap
	$(GO) test -fuzz='^FuzzFrame$$' -fuzztime=30s ./internal/ingest
	$(GO) test -fuzz=FuzzFrameAliasVsCopy -fuzztime=30s ./internal/ingest
	$(GO) test -fuzz=FuzzDifferentialPackedVsLegacy -fuzztime=30s ./internal/entropy
	$(GO) test -fuzz=FuzzDecodeSnapshot -fuzztime=30s ./internal/persist
	$(GO) test -fuzz=FuzzDecodeTree -fuzztime=30s ./internal/persist
	$(GO) test -fuzz=FuzzDecodeSVMModel -fuzztime=30s ./internal/persist
	$(GO) test -fuzz=FuzzDecodeClassifier -fuzztime=30s ./internal/persist
	$(GO) test -fuzz=FuzzImportCDB -fuzztime=30s ./internal/persist
	$(GO) test -fuzz=FuzzImportCheckpoint -fuzztime=30s ./internal/persist

# Snapshot wire-format compatibility against the checked-in golden
# fixtures (internal/persist/testdata). A failure means the format
# changed without a version bump; regenerate intentionally with -update.
# The migration fixture's test lives in internal/flow, beside its codec.
snapshot-compat:
	$(GO) test -run 'TestGolden' -v ./internal/persist ./internal/flow

clean:
	$(GO) clean ./...
	rm -f model.json test_output.txt bench_output.txt
