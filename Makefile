# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test vet bench bench-micro hotlines hotallocs bench-json bench-scale bench-shards bench-fanin bench-federation bench-churn obs-gate fanin-gate alloc-ceiling repro repro-quick same-output cover examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) vet ./...
	$(GO) test -race ./...

# Full benchmark suite (one benchmark per paper table/figure + substrate
# microbenchmarks).
bench:
	$(GO) test -bench=. -benchmem ./...

# Hot-path microbenchmarks only: engine schedule/fire and the hold model
# (BenchmarkHold), packet-plane forwarding, multicast replication, the
# controller's per-interval pass and the flat control plane's report and
# suggestion paths (BenchmarkFlatReportPath, BenchmarkFlatResend).
# COUNT=5 (or any -count value) produces benchstat-ready samples; pipe
# through scripts/benchdiff.sh to compare commits.
COUNT ?= 1
bench-micro:
	$(GO) test -run '^$$' -bench . -benchmem -count $(COUNT) ./internal/sim ./internal/netsim ./internal/mcast ./internal/core ./internal/obs ./internal/controller

# Where the time goes, line by line: the four repository-benchmark workload
# specs run under toposim -cpuprofile, ten hottest source lines of each
# (WORKLOADS="tree1k-agg" for one; RUNS, TOP, FOCUS as in the script).
hotlines:
	scripts/hotlines.sh $(WORKLOADS)

# Where the allocations go: the same four specs under toposim -memprofile,
# the top run-phase allocation sites of each (the difference of the heap
# profiles written after World.Start and after the run).
hotallocs:
	scripts/hotallocs.sh $(WORKLOADS)

# Zero-allocation gate for the observability layer: every obs benchmark
# (instruments, recorder, probed and unprobed forwarding) must report
# 0 allocs/op, or the "zero overhead when off" contract is broken.
obs-gate:
	scripts/benchdiff.sh obs-gate

# Quick sweep with machine-readable results: wall time, events/s and
# packet counts per run land in BENCH_quick.json for cross-commit
# comparison.
bench-json:
	$(GO) run ./cmd/topobench -quick -json BENCH_quick.json

# Scaling curve toward the 10^5-receiver north star: the fig_scale tree
# ladder, exported to BENCH_scale.json — a local capture, not committed
# (.gitignore keeps only BENCH_shards.json). The largest point is a few
# minutes of wall clock on one core.
bench-scale:
	$(GO) run ./cmd/topobench -fig fig_scale -json BENCH_scale.json

# Shard speedup capture: the fig_scale tree ladder run on both engines —
# single-threaded baseline plus a $(SHARDS)-worker sharded twin per point —
# exported to BENCH_shards.json. The speedup column is each sharded run's
# baseline wall time over its own; the 10^5-receiver point dominates.
# -parallel 1: on a multi-core box the runner would otherwise time a
# baseline and a sharded twin side by side, each slowing the other.
SHARDS ?= 4
bench-shards:
	$(GO) run ./cmd/topobench -fig fig_scale -topo tree -shards $(SHARDS) -parallel 1 -json BENCH_shards.json

# Control-plane fan-in capture: the fig_scale tree ladder run flat and with
# the in-network aggregation layer (an "/agg" twin per point), exported to
# BENCH_fanin.json (local, not committed). The rendered table carries
# controller messages per pass, control bytes per receiver and the
# aggregation reduction factor; the 10^5-receiver point demonstrates the
# O(receivers) -> O(branching) collapse.
bench-fanin:
	$(GO) run ./cmd/topobench -fig fig_scale -topo tree -aggregate -json BENCH_fanin.json

# Allocation gate for the control plane's hot paths: report merge, batched
# suggestion fan-out, the flat report path, a flat suggestion with its
# repeat, a join/leave cycle, grafts reaching routers for the first time,
# a decision interval over a tree that holds still and a TopoSense pass
# over a known tree must report 0 allocs/op at steady state, a first-sight
# pass over a 21 111-node tree at most 64, and a discovery walk of that
# tree after it changed at most 8.
fanin-gate:
	scripts/benchdiff.sh fanin-gate

# Allocation ceiling for whole runs: each benchmark workload's set-up and
# run-phase allocation totals (scripts/hotallocs.sh) must stay within 10 %
# of their figures in DESIGN.md §5's allocation ledger.
alloc-ceiling:
	scripts/benchdiff.sh alloc-ceiling

# Membership churn capture: the fig_churn join/leave study (TopoSense vs
# RLM under Poisson churn swept around the decision interval, plus a tree
# ladder point) exported to BENCH_churn.json. The rows carry the departure
# lifecycle numbers: deregistrations consumed, graft+prune rates, tree-cost
# drift (leaked branches) and settled-receiver convergence.
bench-churn:
	$(GO) run ./cmd/topobench -fig fig_churn -json BENCH_churn.json

# Hierarchical control plane capture: the flat-vs-federated comparison on
# the tiered topology (fig_federation) exported to BENCH_federation.json.
# The federated rows carry per-domain budget convergence (ceiling, end
# budget, churn count, last-change time) and the cross-domain isolation
# count, which must be 0.
bench-federation:
	$(GO) run ./cmd/topobench -fig fig_federation -json BENCH_federation.json

# Regenerate the paper's evaluation at full scale (~2 minutes, plus the
# fig_scale ladder — see bench-scale — which dominates at full size).
repro:
	$(GO) run ./cmd/topobench

# Scaled-down regeneration (~15 seconds).
repro-quick:
	$(GO) run ./cmd/topobench -quick

# Byte-identity check against another checkout, typically a `git clone` of
# the parent commit: toposim over a fixed spec list and topobench -quick
# -json on both sides, host-time fields removed; fails on any difference.
same-output:
	scripts/sameoutput.sh $(PARENT)

cover:
	$(GO) test -cover ./...

# Run every example once.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/heterogeneous
	$(GO) run ./examples/competing
	$(GO) run ./examples/staleness
	$(GO) run ./examples/domains

clean:
	$(GO) clean ./...
