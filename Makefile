# Development targets. `make check` is the pre-PR gate referenced in
# README.md: everything it runs must pass before sending a change.

GO ?= go

.PHONY: check vet build test race bench bench-baseline obs-overhead dp-allocs strash-determinism fuzz-smoke chaos-smoke cluster-smoke trace-smoke persist-smoke

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

# Guard on the instrumentation's zero-cost-when-disabled contract: a run
# with the stats collector enabled must not be measurably slower, and an
# untraced (or sampled-out) run must not allocate per node. The timing
# test is env-gated so plain `go test ./...` stays load-tolerant.
obs-overhead:
	SOIDOMINO_OBS_OVERHEAD=1 $(GO) test -run 'Test(Stats|Trace)Overhead' -v ./internal/mapper

# Guard on the mapper's allocation profile on des: newEngine plus the
# dynamic program (SOI, Pareto) must stay under a pinned allocs/run
# ceiling — one slot table and candidate-arena chunks, nothing per
# node or per combine — and so must traceback (SOI Pareto and
# RS_Map: arena-built trees, a few allocations per gate) and
# Result.Audit. The strash front-end, on the key path of every service
# request, is pinned the same way (about one allocation per kept gate).
# Env-gated like obs-overhead.
dp-allocs:
	SOIDOMINO_DP_ALLOCS=1 $(GO) test -run 'Test(DP|Traceback)Allocs' -v ./internal/mapper
	SOIDOMINO_DP_ALLOCS=1 $(GO) test -run 'TestStrashAllocs' -v ./internal/strash

# The strash front-end's determinism contract: every testdata circuit's
# strash output is byte-stable across runs and idempotent, strash-on/off
# mappings are both equivalent to the source, renamed submissions share
# one router shard, and the cache key is faithful (a shuffled twin shares
# it and encodes identically; a PO-reordered twin does not share it).
# Benchmarks run it first (bench-baseline) so a perf-motivated strash
# change cannot silently trade away determinism.
strash-determinism:
	$(GO) test -race -run 'Test(Strash|KeyFaithfulness|POOrder)' -v .
	$(GO) test -race -v ./internal/strash

# ~40s: a short differential campaign over the full mapper/option grid,
# then the native parser fuzzers and the result encoder's fuzzer
# (EncodeJSON against json.MarshalIndent). A longer run is `go run
# ./cmd/soifuzz -n 2000`; see the "Fuzzing the mappers" section of
# README.md.
fuzz-smoke:
	$(GO) run ./cmd/soifuzz -n 300 -seed 1
	$(GO) test -fuzz=FuzzParseBLIF -fuzztime=10s -run=^$$ ./internal/blif
	$(GO) test -fuzz=FuzzParseBench -fuzztime=10s -run=^$$ ./internal/benchfmt
	$(GO) test -fuzz=FuzzEncodeJSON -fuzztime=10s -run=^$$ ./internal/service

# ~30s: a seeded chaos campaign against an in-process soimapd — every
# fault point armed, every successful response re-verified by the fuzz
# oracles. Replay a finding with:
# go run ./cmd/soichaos -campaign single -seed N. See the
# "Resilience" section of README.md.
chaos-smoke:
	$(GO) run ./cmd/soichaos -campaign single -seed 1 -requests 4000 -duration 30s -p 0.12 -sim 2

# Seconds: the distributed-tracing gate — the obs span model and its
# single Chrome writer under -race, then one traced request through an
# in-process router + two peer replicas must stitch into a single
# Perfetto trace carrying router, replica queue/job/phase and peer-cache
# spans, with an explain record whose phase times nest inside the run
# wall. See DESIGN.md §14 and the Observability section of README.md.
trace-smoke:
	$(GO) test -race -run 'Test(Tracer|NilTracer|WriteSpans|StartSpan|TraceHub)' -count=1 ./internal/obs
	$(GO) test -race -run 'TestTraceSmokeStitchesClusterTrace' -v -count=1 ./internal/cluster

# ~30s: the multi-node campaign — an in-process soirouter fronting three
# replicas with the shared cache tier, one replica killed and restarted
# mid-flight, identical-submission bursts driving the replicas'
# coalescing. Every completed response is byte-compared against a clean
# local re-derivation. Replay with:
# go run ./cmd/soichaos -campaign cluster -seed N.
cluster-smoke:
	$(GO) run ./cmd/soichaos -campaign cluster -seed 1 -requests 2000 -duration 30s -p 0.02 -sim 1

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
