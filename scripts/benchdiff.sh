#!/bin/sh
# benchdiff.sh - capture and compare hot-path microbenchmark runs.
#
# Usage:
#   scripts/benchdiff.sh capture NAME        run bench-micro, save to bench/NAME.txt
#   scripts/benchdiff.sh compare OLD NEW     diff two captures
#   scripts/benchdiff.sh obs-gate            fail if any obs benchmark allocates
#   scripts/benchdiff.sh fanin-gate          fail if a control-plane hot path allocates
#   scripts/benchdiff.sh alloc-ceiling       fail if a workload's set-up or run phase
#                                            allocates 10 % above DESIGN.md's ledger
#
# Capture before and after a change, then compare:
#   scripts/benchdiff.sh capture base
#   ... hack hack ...
#   scripts/benchdiff.sh capture mine
#   scripts/benchdiff.sh compare base mine
#
# Comparison uses benchstat when it is installed (go install
# golang.org/x/perf/cmd/benchstat@latest); otherwise it falls back to a
# plain side-by-side diff of the benchmark lines, which is enough to
# eyeball ns/op and allocs/op movement.
set -eu

cd "$(dirname "$0")/.."
BENCH_DIR=${BENCH_DIR:-bench}
COUNT=${COUNT:-5}

usage() {
	sed -n '2,17p' "$0" | sed 's/^# \{0,1\}//'
	exit 2
}

[ $# -ge 1 ] || usage
cmd=$1
shift

case "$cmd" in
capture)
	[ $# -eq 1 ] || usage
	mkdir -p "$BENCH_DIR"
	out="$BENCH_DIR/$1.txt"
	echo "capturing $COUNT samples per benchmark to $out" >&2
	make --no-print-directory bench-micro COUNT="$COUNT" | tee "$out"
	;;
compare)
	[ $# -eq 2 ] || usage
	old="$BENCH_DIR/$1.txt"
	new="$BENCH_DIR/$2.txt"
	for f in "$old" "$new"; do
		[ -f "$f" ] || { echo "missing capture $f (run: $0 capture <name>)" >&2; exit 1; }
	done
	if command -v benchstat >/dev/null 2>&1; then
		benchstat "$old" "$new"
	else
		echo "benchstat not installed; falling back to raw line diff." >&2
		echo "(go install golang.org/x/perf/cmd/benchstat@latest for stats)" >&2
		echo "--- $old"
		grep '^Benchmark' "$old" || true
		echo "+++ $new"
		grep '^Benchmark' "$new" || true
	fi
	;;
obs-gate)
	# The observability layer promises zero allocations on every hot-path
	# instrument, enabled or disabled, and zero overhead beyond one pointer
	# comparison when off. Run its benchmarks with -benchmem and fail on
	# any non-zero allocs/op.
	[ $# -eq 0 ] || usage
	out=$(go test -run '^$' -bench . -benchmem -benchtime 1000x ./internal/obs)
	echo "$out"
	bad=$(echo "$out" | awk '/^Benchmark/ && $(NF-1) + 0 > 0 { print "  " $1 ": " $(NF-1) " allocs/op" }')
	if [ -n "$bad" ]; then
		echo "obs-gate FAILED: observability benchmarks allocated:" >&2
		echo "$bad" >&2
		exit 1
	fi
	echo "obs-gate OK: every observability benchmark at 0 allocs/op" >&2
	;;
fanin-gate)
	# The control plane promises zero allocations on its steady-state hot
	# paths: folding a loss report into an aggregate, merging a child
	# aggregate, a whole flush cycle of pooled payloads (new, fold, merge and
	# release at leaf, interior and top sizes, and a two-level batch split),
	# the controller's batched suggestion fan-out, a flat report
	# from the receiver's tick through two hops into the controller's table,
	# a flat suggestion with its mid-interval repeat, a join/leave cycle's
	# grafts, prunes and leave timer, grafts that reach routers for the
	# first time (entries and arrays come from chunked pools, whose refills
	# amortize below one allocation an op), a decision interval over a tree
	# that holds still (discovery records the last walk again, the pass
	# reads it in place), and a TopoSense pass over a tree it has seen. A pass over a
	# 21 111-node tree seen for the first time may allocate once per column,
	# 64 times at most; a discovery walk of that tree that changed allocates
	# the snapshot and its arrays, 8 times at most. Run those benchmarks with
	# -benchmem and fail on anything above that.
	[ $# -eq 0 ] || usage
	out=$(go test -run '^$' -bench 'BenchmarkAggregate|BenchmarkSuggestionFanout|BenchmarkFlat|BenchmarkJoinLeaveCycle|BenchmarkGraftFirstTouch|BenchmarkSteadyDiscoveryPass' \
		-benchmem -benchtime 1000x ./internal/report ./internal/controller ./internal/mcast)
	out="$out
$(go test -run '^$' -bench 'BenchmarkStepTree|BenchmarkStepTopologyB/steady' \
		-benchmem -benchtime 20x ./internal/core)"
	out="$out
$(go test -run '^$' -bench 'BenchmarkSnapshotWalk' -benchmem -benchtime 20x ./internal/topodisc)"
	echo "$out"
	bad=$(echo "$out" | awk '/^Benchmark/ { max = 0
		if ($1 ~ /^BenchmarkStepTree\/first-sight/) max = 64
		if ($1 ~ /^BenchmarkSnapshotWalk/) max = 8
		if ($(NF-1) + 0 > max) print "  " $1 ": " $(NF-1) " allocs/op, at most " max " allowed" }')
	if [ -n "$bad" ]; then
		echo "fanin-gate FAILED: control-plane hot-path benchmarks allocated:" >&2
		echo "$bad" >&2
		exit 1
	fi
	echo "fanin-gate OK: every control-plane hot-path benchmark within its allocation budget" >&2
	;;
alloc-ceiling)
	# The allocation contract end to end, where the gates above time one
	# path at a time: each benchmark workload's set-up and run-phase
	# allocation totals under scripts/hotallocs.sh (which move by a few
	# from run to run) against their figures in DESIGN.md §5's allocation
	# ledger, with 10 % headroom. A change that moves a ledger figure on
	# purpose updates the figure here with it.
	[ $# -eq 0 ] || usage
	out=$(TOP=5 scripts/hotallocs.sh)
	echo "$out"
	bad=$(echo "$out" | awk '
		function check(phase, n, c) {
			if (n > c * 1.1) print "  " w ": " n " " phase " allocations, ledger " c ", at most " int(c * 1.1) " allowed"
		}
		/^== / {
			w = $2; sub(/:$/, "", w)
			if (w == "paperB16-vbr") { s = 1022; r = 747 }
			else if (w == "tree1k-agg") { s = 3806; r = 1187 }
			else if (w == "tree10k-flat") { s = 32659; r = 996 }
			else if (w == "tree1k-churn") { s = 8973; r = 14162 }
			else { print "  " w ": no ceiling"; s = r = -1 }
		}
		/set-up allocations:/ { if (s >= 0) { seen++; check("set-up", $NF, s) } }
		/run-phase allocations:/ { if (r >= 0) { seen++; check("run-phase", $NF, r) } }
		END { if (seen != 8) print "  " seen + 0 " of 8 totals (4 workloads, set-up and run phase) measured" }')
	if [ -n "$bad" ]; then
		echo "alloc-ceiling FAILED: allocations above the ledger:" >&2
		echo "$bad" >&2
		exit 1
	fi
	echo "alloc-ceiling OK: every workload's set-up and run phase within 10 % of its ledger figures" >&2
	;;
*)
	usage
	;;
esac
