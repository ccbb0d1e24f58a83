#!/bin/sh
# benchdiff.sh - capture and compare hot-path microbenchmark runs.
#
# Usage:
#   scripts/benchdiff.sh capture NAME        run bench-micro, save to bench/NAME.txt
#   scripts/benchdiff.sh compare OLD NEW     diff two captures
#   scripts/benchdiff.sh obs-gate            fail if any obs benchmark allocates
#   scripts/benchdiff.sh fanin-gate          fail if a control-plane hot path allocates
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
	sed -n '2,15p' "$0" | sed 's/^# \{0,1\}//'
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
	# aggregate, the controller's batched suggestion fan-out, a flat report
	# from the receiver's tick through two hops into the controller's table,
	# a flat suggestion with its mid-interval repeat, a join/leave cycle's
	# grafts, prunes and leave timer, and a TopoSense pass over a tree it has
	# seen. A pass over a 21 111-node tree seen for the first time may
	# allocate once per column, 64 times at most. Run those benchmarks with
	# -benchmem and fail on anything above that.
	[ $# -eq 0 ] || usage
	out=$(go test -run '^$' -bench 'BenchmarkAggregate|BenchmarkSuggestionFanout|BenchmarkFlat|BenchmarkJoinLeaveCycle' \
		-benchmem -benchtime 1000x ./internal/report ./internal/controller ./internal/mcast)
	out="$out
$(go test -run '^$' -bench 'BenchmarkStepTree|BenchmarkStepTopologyB/steady' \
		-benchmem -benchtime 20x ./internal/core)"
	echo "$out"
	bad=$(echo "$out" | awk '/^Benchmark/ { max = 0
		if ($1 ~ /^BenchmarkStepTree\/first-sight/) max = 64
		if ($(NF-1) + 0 > max) print "  " $1 ": " $(NF-1) " allocs/op, at most " max " allowed" }')
	if [ -n "$bad" ]; then
		echo "fanin-gate FAILED: control-plane hot-path benchmarks allocated:" >&2
		echo "$bad" >&2
		exit 1
	fi
	echo "fanin-gate OK: every control-plane hot-path benchmark within its allocation budget" >&2
	;;
*)
	usage
	;;
esac
