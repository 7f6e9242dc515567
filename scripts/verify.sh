#!/bin/sh
# verify.sh — the repository's full verification gate: build everything,
# vet, then run the test suite under the race detector. The race pass
# matters because internal/host serves mixed-tenant load across worker
# goroutines; tier-1 CI (plain `go test ./...`) would not catch a data race
# on the simulator state.
#
# The race pass runs with -short: that skips only the single-threaded macro
# experiments (Fig 2/3/4, SPEC sweeps), which are ~16x slower under the
# race detector and have no concurrency to check, while every concurrent
# code path — internal/host including its 1000-request mixed-tenant stress
# test, faas, sandbox, stats — runs in full. For the unabridged version:
# `go test -race -timeout 45m ./...`.
#
# Then the chaos soak runs once more, uncached (-count=1): the seeded
# fault-injection acceptance test for the serving layer — deterministic
# outcome counts across two same-seed runs, exact conservation
# (admitted == ok+timeout+fault+shed+rejected), per-tenant progress under
# a hot-tenant flood, bounded warm pools (`make soak` runs just this).
#
# Then the fast load gate: two short deterministic open-loop sweeps
# through the one load harness (internal/loadgen), checked against the one
# baseline scripts/loadtest_baseline.json — the in-process leg (hfiserve
# -mode sweep) and the cluster leg (hfirouter -selfdrive: 3 real shard
# subprocesses behind the consistent-hash router, fleet ledger settled
# per point). Every point must exist in the baseline with the same
# schedule hash and per-tenant offered counts, conserve, and serve
# everything at the lowest rate; p99 is a tolerance. `make loadtest` runs
# just this; the race pass above already covers the cluster chaos soak
# (shard SIGKILL + router↔shard partitions) via ./internal/cluster.
#
# Then the real binaries: hfihttpd is built into a temp dir and driven
# twice — its own -selfdrive sweep, and as the -shard-bin of an hfirouter
# -selfdrive sweep (the separate-binary path hfirouter's usage documents,
# where every shard runs cluster.ShardMain inside hfihttpd). Both must
# settle the loadgen ledger.
#
# After the tests, the static-verifier gate: hfiverify proves every corpus
# program safe under every scheme (the corpus includes the hostcall guests,
# whose gate and marshalling proofs get an explicit labeled sweep of their
# own), then re-runs the corpus through the fact-producing analyzer with
# the independent AuditFacts re-derivation (-facts), then runs the fast
# mutation bench — instruction operators plus the fact-corruption
# operators — which fails on any verified-then-escaped mutant or a static
# kill rate below 95% (full bench: `go run ./cmd/hfiverify -mutate -full`).
#
# hfilint runs right after vet: the custom checks (negated-errno returns in
# the hostcall handlers, the closed verifier rule vocabulary) that plain
# vet cannot express. A dedicated uncached -race pass over the verifier and
# mutation packages closes the loop on the analysis code itself; the same
# pass covers internal/faas, whose concurrent cold-provision test
# (TestConcurrentColdProvisionBuildsOnce) is the race proof for the image
# cache's per-key wait, and internal/stats, internal/mem, internal/sandbox,
# internal/tier and internal/cpu, whose allocation gates
# (TestRecordZeroAllocs, TestRecorderBoundedMemory,
# TestDigestCostFollowsResidentPages, TestHeapHashZeroAllocs,
# TestTierHotLoopZeroAllocs — which also runs the gate derivation every
# cold engine pays on its first block — TestTierCheckedLoopZeroAllocs and
# TestInterpHotLoopZeroAllocs) measure the process and must not be served
# from the test cache. The same pass reruns the checked-op differentials
# over the shared page-decision cache (TestCheckedOpsFaultMidBlock,
# TestStaleDTCPlantNeverConsumed, TestDTCSlotsIndependent). Two 10 s fuzz smokes
# follow: FuzzHistogram, the shard ledger's latency histogram against
# stats.Percentile on arbitrary float64 streams, and FuzzHeapDigest, the
# verified-reset digest against a direct content comparison of two sparse
# memories driven by arbitrary write/zero/discard/bit-flip sequences (the
# seed corpora alone already run under plain `go test`).
#
# Last, the benchmark module: benchmark/ has its own go.mod (the root
# ./... patterns do not reach it) but imports this module's exported API,
# so it is built and its smoke tests run here — without -race, which slows
# the simulator until its open-loop workload sheds.
#
# Usage: scripts/verify.sh  (or `make verify`)
set -eu
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...
echo "== go vet ./..."
go vet ./...
echo "== hfilint: repository-specific static checks"
go run ./cmd/hfilint
echo "== go test -race -short ./..."
go test -race -short -timeout 15m ./...
echo "== chaos soaks: serving + substrate (seeded, race-detected)"
go test -race -short -count=1 -run 'TestChaosSoak' ./internal/host
echo "== loadtest: open-loop sweeps vs scripts/loadtest_baseline.json (fast)"
sh scripts/loadtest.sh >/dev/null
echo "== binaries: hfihttpd -selfdrive, hfirouter -selfdrive -shard-bin hfihttpd"
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/hfihttpd" ./cmd/hfihttpd
go build -o "$bin/hfirouter" ./cmd/hfirouter
"$bin/hfihttpd" -selfdrive -workers 2 -rates 300 -requests 60 >/dev/null
"$bin/hfirouter" -selfdrive -shards 2 -shard-bin "$bin/hfihttpd" -rates 300 -requests 60 >/dev/null
echo "== hfiverify: corpus under all schemes"
go run ./cmd/hfiverify
echo "== hfiverify -class hostcall: gate + marshalling proofs on the boundary guests"
go run ./cmd/hfiverify -class hostcall
echo "== hfiverify -facts: analyzer facts + independent audit over the corpus"
go run ./cmd/hfiverify -facts >/dev/null
echo "corpus facts audited"
echo "== go test -race -count=1 (uncached): verifier + mutation + faas + stats + mem + sandbox + tier + cpu"
go test -race -short -count=1 ./internal/verifier ./internal/mutation ./internal/lint ./internal/faas ./internal/stats ./internal/mem ./internal/sandbox ./internal/tier ./internal/cpu
echo "== fuzz smoke: FuzzHistogram, 10 s"
go test -run '^$' -fuzz=FuzzHistogram -fuzztime=10s ./internal/stats
echo "== fuzz smoke: FuzzHeapDigest, 10 s"
go test -run '^$' -fuzz=FuzzHeapDigest -fuzztime=10s ./internal/mem
echo "== hfiverify -mutate: verifier soundness bench (fast, incl. fact-corruption operators)"
go run ./cmd/hfiverify -mutate
echo "== benchmark module: build + smoke tests"
(cd benchmark && go build -o /dev/null ./... && go test ./...)
echo "verify: all green"
