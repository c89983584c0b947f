# Development targets. `make check` is the pre-PR gate referenced in
# README.md: everything it runs must pass before sending a change.

GO ?= go

.PHONY: check vet build test race bench bench-baseline loc obs-overhead dp-allocs strash-determinism fuzz-smoke chaos-smoke cluster-smoke trace-smoke persist-smoke

check: vet build race obs-overhead dp-allocs strash-determinism fuzz-smoke chaos-smoke cluster-smoke trace-smoke persist-smoke

# gofmt is part of vet: any file `gofmt -l` lists fails the gate.
# perfbench is a separate module that `./...` never reaches, so it is
# vetted (and thereby compiled) on its own: an API change that breaks
# the benchmark fails here, not only when the benchmark runs.
vet:
	$(GO) vet ./...
	cd perfbench && GOWORK=off $(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$

# Writes a benchstat-friendly JSON baseline (BENCH_<date>.json). Compare
# two baselines with: jq -r .raw BENCH_A.json > a.txt; jq -r .raw
# BENCH_B.json | benchstat a.txt -
bench-baseline: strash-determinism
	$(GO) test -bench=. -benchmem -count=5 -run=^$$ | $(GO) run ./cmd/benchjson > BENCH_$$(date -u +%Y-%m-%d).json
	@echo "wrote BENCH_$$(date -u +%Y-%m-%d).json"

# Go line counts: non-test source outside perfbench/ (the benchmark's
# own module), then test files outside it.
GO_FILES = find . \( -path ./perfbench -o -path './.*' \) -prune -o -name '*.go'

loc:
	@echo "non-test $$($(GO_FILES) ! -name '*_test.go' -print | xargs cat | wc -l)"
	@echo "test     $$($(GO_FILES) -name '*_test.go' -print | xargs cat | wc -l)"

# Guard on the instrumentation's zero-cost-when-disabled contract: a run
# with the stats collector enabled must not be measurably slower, and an
# untraced (or sampled-out) run must not allocate per node. The timing
# test is env-gated so plain `go test ./...` stays load-tolerant.
obs-overhead:
	SOIDOMINO_OBS_OVERHEAD=1 $(GO) test -run 'Test(Stats|Trace)Overhead' -v ./internal/mapper

# Guard on the mapper's allocation profile on des: a warm newEngine
# plus the dynamic program (SOI, Pareto) must stay under a pinned
# allocs/run ceiling (its tables and arena chunks come from the pooled
# workspace, so only the engine is allocated), a warm SOIDominoMap run
# may allocate little beyond its traceback, and traceback with its
# discharge pass (SOI Pareto, Domino_Map, RS_Map and RS_Map_deep: built
# in the pooled workspace, then one output name per gate and a few
# exact-size arrays for the Result), Result.Audit (a few buffers,
# nothing per gate) and mapper.Rearrange (a few arrays, nothing per
# gate) stay under theirs. A warm RS_Map or RS_Map_deep run may allocate
# no more than a warm Domino_Map run: the stack reordering rides in the
# discharge pass every mapper runs. A Gate stays at most 112 bytes, and
# a SequenceAware discharge pass over des (one charge-path graph per
# gate) under half the allocations it once took. The strash front-end,
# on the key path of every service request, is pinned the same way in
# allocations and bytes: a warm run allocates its output network (presized, its fanins in one flat store)
# and nothing else, its builder coming from a pool, and so is the
# lowering to unate form (Decompose + Convert + the pipeline's network
# Stats: the literal table and the presized unate network, scratch and
# level table pooled); a warm-run guard on each fails when its pool is
# bypassed or when c7552 and c432 alternate, and the id table both index
# by (internal/idtab) allocates nothing warm. So is the routing
# key of an inline BLIF source (service.RequestKey on des: the reader
# lowers the text straight into a pooled strash builder, no network,
# under fifty allocations), and soirouter's key memo hit (nothing
# allocated, for a registry request and for c499's 47 KB BLIF alike: a
# hit never lowers the text). So is the request decoder soimapd and
# soirouter share (service.ParseRequest on des and c499: the request and
# one string of the BLIF's size, at most about 1.1 times the body), and
# the encoding of a mapped result (EncodeJSON(NewMapResult) on des: three
# allocations, the output's bytes plus 1 KiB, nothing per gate).
# Env-gated like obs-overhead.
dp-allocs:
	SOIDOMINO_DP_ALLOCS=1 $(GO) test -run 'Test(DP|Traceback|Rearrange|Discharge)Allocs|TestGateSize' -v ./internal/mapper
	SOIDOMINO_DP_ALLOCS=1 $(GO) test -run 'TestStrashAllocs' -v ./internal/strash
	SOIDOMINO_DP_ALLOCS=1 $(GO) test -run 'TestFrontEndAllocs' -v ./internal/unate
	SOIDOMINO_DP_ALLOCS=1 $(GO) test -run 'TestTableAllocs' -v ./internal/idtab
	SOIDOMINO_DP_ALLOCS=1 $(GO) test -run 'Test(Key|ParseRequest|Encode)Allocs' -v ./internal/service
	SOIDOMINO_DP_ALLOCS=1 $(GO) test -run 'TestRouterMemoHitAllocs' -v ./internal/cluster

# The strash front-end's determinism contract: every testdata circuit's
# strash output is byte-stable across runs and idempotent, strash-on/off
# mappings are both equivalent to the source, renamed submissions share
# one router shard, and the cache key is faithful (a shuffled twin shares
# it and encodes identically; a PO-reordered twin does not share it). A
# per-request strash_off routed twice keys as the replica does: cached the
# second time, byte-equal to a direct mapping, no key mismatch. The key
# also holds only the options the algorithm reads: requests differing in
# unread fields share it through soirouter (cached the second time), and
# the mappers give the same result and DP counters on raw options as on
# the canonical ones the key is made of. Strash, the text key and the
# unate lowering, run from several goroutines over pooled scratch with
# one of them arming strash.bad-merge, match their serial results.
# Benchmarks run it first (bench-baseline) so a perf-motivated strash
# change cannot silently trade away determinism.
strash-determinism:
	$(GO) test -race -run 'Test(Strash|KeyFaithfulness|POOrder)' -v .
	$(GO) test -race -v ./internal/strash
	$(GO) test -race -run 'TestRouter(StrashOffMismatchCounted|CanonicalOptionsShareKey)' -v ./internal/cluster
	$(GO) test -race -run 'TestCanonicalOptionsProperty' -v ./internal/mapper

# ~70s: a short differential campaign over the full mapper/option grid,
# then the native parser fuzzers, the result encoder's fuzzer
# (EncodeJSON against json.MarshalIndent), the router relay's
# (RelayView against decode, rewrite id, json.Encoder) and the request
# decoder's (ParseRequest against json.Decoder), and the flat pulldown
# form's (its metrics, PBE analysis, rearrangements and pruning against
# reference tree walks). A longer run is `go run
# ./cmd/soifuzz -n 2000`; see the "Fuzzing the mappers" section of
# README.md.
#
# Each fuzzer minimizes a new coverage input for at most
# -fuzzminimizetime. Go's default is 60 s, longer than the 10 s window,
# so one minimization could stall a smoke run at 0 execs/s until its end.
FUZZ_SMOKE = -fuzztime=10s -fuzzminimizetime=1s -run=^$$

fuzz-smoke:
	$(GO) run ./cmd/soifuzz -n 300 -seed 1
	$(GO) test -fuzz=FuzzParseBLIF $(FUZZ_SMOKE) ./internal/blif
	$(GO) test -fuzz=FuzzParseBench $(FUZZ_SMOKE) ./internal/benchfmt
	$(GO) test -fuzz=FuzzEncodeJSON $(FUZZ_SMOKE) ./internal/service
	$(GO) test -fuzz=FuzzRelayView $(FUZZ_SMOKE) ./internal/service
	$(GO) test -fuzz=FuzzParseRequest $(FUZZ_SMOKE) ./internal/service
	$(GO) test -fuzz=FuzzFlatPulldown $(FUZZ_SMOKE) ./internal/pbe

# ~30s: a seeded chaos campaign against an in-process soimapd — every
# fault point armed, every successful response re-verified by the fuzz
# oracles. Replay a finding with:
# go run ./cmd/soichaos -campaign single -seed N. See the
# "Resilience" section of README.md.
chaos-smoke:
	$(GO) run ./cmd/soichaos -campaign single -seed 1 -requests 4000 -duration 30s -p 0.12 -sim 2

# Seconds: the distributed-tracing gate — the obs span recorder (the
# TraceHub, RunPhase, the edge sampling decision) and its single Chrome
# writer under -race; an unsampled traceparent sampled locally by
# soimapd and by soirouter; one clock per phase (each phase span lasts
# what Stats charges, in soimapd and in soimap -trace alike); then one
# traced request through an in-process router + two peer replicas must
# stitch into a single Perfetto trace carrying router, replica
# queue/job/phase and peer-cache spans, with an explain record whose
# phase times nest inside the run wall. -v shows every package ran
# tests: a -run regex that matches nothing passes silently. See
# DESIGN.md §14 and the Observability section of README.md.
trace-smoke:
	$(GO) test -race -run 'Test(Tracer|NilTracer|RunPhase|SampleRequest|WriteSpans|StartSpan|TraceHub)' -v -count=1 ./internal/obs
	$(GO) test -race -run 'TestUnsampledTraceparentSampledLocally' -v -count=1 ./internal/service
	$(GO) test -race -run 'Test(TracedJob|CLITrace)PhaseSpans' -v -count=1 ./cmd/soimap
	$(GO) test -race -run 'Test(TraceSmokeStitchesClusterTrace|RouterSamplesUnsampledTraceparent)' -v -count=1 ./internal/cluster

# ~30s: the multi-node campaign — an in-process soirouter fronting three
# replicas with the shared cache tier, one replica killed and restarted
# mid-flight, identical-submission bursts driving the replicas'
# coalescing. Every completed response is byte-compared against a clean
# local re-derivation. Replay with:
# go run ./cmd/soichaos -campaign cluster -seed N.
# Then ~25s: the router's byte relay, replica coalescing included, twenty
# times under -race (the async leader is held at its queue pop by a
# latency fault, so its twin always finds it in flight). Last, under
# -race: soimap -json prints the same bytes locally, through -server
# against a soimapd and through -server against a soirouter.
cluster-smoke:
	$(GO) run ./cmd/soichaos -campaign cluster -seed 1 -requests 2000 -duration 30s -p 0.02 -sim 1
	$(GO) test -race -count=20 -run TestRouterRelaysReplicaBytes ./internal/cluster
	$(GO) test -race -count=1 -run TestCLIMatchesDaemon -v ./cmd/soimap

# Seconds: the crash-persistence gate — a state-dir soimapd takes load
# with torn-write/fsync faults armed against its durable tier, is
# crash-stopped mid-batch, and restarts over the same dir. The restart
# must be warm (store hits from journal recovery), re-admit the cut-down
# jobs under their original ids, quarantine every injected tear, and
# replay every request byte-identically. See DESIGN.md §15 and the
# Persistence section of README.md. Replay a finding with:
# go run ./cmd/soichaos -campaign persist -seed N.
persist-smoke:
	$(GO) test -race -run 'TestPersistSmoke' -v -count=1 ./internal/chaostest
