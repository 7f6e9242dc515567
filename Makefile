# Convenience targets; scripts/verify.sh is the canonical gate.

.PHONY: build test race vet verify verifier bench benchfull serve soak chaos loadtest httpd router

# benchmark/ is its own module (root ./... does not reach it) and imports
# this one's exported API, so build and test cover it explicitly.
build:
	go build ./...
	cd benchmark && go build -o /dev/null ./...

test:
	go test ./...
	cd benchmark && go build -o /dev/null ./... && go test ./...

vet:
	go vet ./...

race:
	go test -race ./...

# Full verification gate: build + vet + race-detected test suite (with the
# zero-alloc gates: interpreter, tier, hostcall round trip, ledger record,
# verified-reset HeapHash) + 10 s FuzzHistogram and FuzzHeapDigest smokes
# + the static-verifier corpus sweep and mutation bench.
verify:
	sh scripts/verify.sh

# Static verifier only: corpus sweep + full mutation bench (~2k mutants).
verifier:
	go run ./cmd/hfiverify
	go run ./cmd/hfiverify -mutate -full

# The repository benchmark (BENCHMARK.json): every workload, end-to-end and
# per-layer metrics; see benchmark/README.md.
bench:
	bash benchmark/run.sh

# Every benchmark in the tree, unfiltered.
benchfull:
	go test -bench=. -benchmem ./...

# Throughput-vs-workers scaling demo with checksum verification.
serve:
	go run ./cmd/hfiserve -requests 200 -verify

# Seeded chaos soaks under the race detector: the serving soak
# (deterministic fault schedule run twice, exact outcome conservation,
# per-tenant fairness under a hot-tenant flood, bounded pools) and the
# substrate soak (TestChaosSoakSubstrate — bit flips, stale DTC entries,
# clock skew, lowering rot, with detect-and-recover containment proven by
# a MemHook escape oracle and injector-predicted counts). The TestChaosSoak
# run pattern matches both. The cluster soak extends the taxonomy to the
# fleet seams: a deterministic mid-sweep shard SIGKILL plus seeded
# router↔shard partitions, with exact conservation across the survivors.
# Part of `make verify`.
soak:
	go test -race -short -count=1 -run 'TestChaosSoak' ./internal/host
	go test -race -count=1 -run 'TestClusterChaosSoak' ./internal/cluster

# Chaos-injected serving demo with the per-tenant outcome breakdown.
chaos:
	go run ./cmd/hfiserve -requests 200 -chaos -seed 7 -dispatch 500us

# Short deterministic open-loop sweeps through the one load harness
# (internal/loadgen), gated by loadgen.CheckBaseline against the one
# baseline, scripts/loadtest_baseline.json: the in-process leg, then the
# cluster leg over 3 real shard subprocesses. Regenerate with
# `scripts/loadtest.sh -check "" -json > scripts/loadtest_baseline.json`.
# Part of `make verify`.
loadtest:
	sh scripts/loadtest.sh

# HTTP front-end demo: serve the default tenant registry on :8080.
httpd:
	go run ./cmd/hfihttpd -addr :8080 -queue 16

# Cluster demo: consistent-hash router over 4 shard subprocesses on :8080.
router:
	go run ./cmd/hfirouter -addr :8080 -shards 4
