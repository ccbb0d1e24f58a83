#!/bin/sh
# hotallocs.sh - where each benchmark workload allocates while it runs.
#
# Usage:
#   scripts/hotallocs.sh [WORKLOAD...]     default: all four
#
# The allocation twin of hotlines.sh. Runs the toposim spec behind each
# repository-benchmark workload (scripts/workloads.sh) once with -memprofile,
# which records every allocation and writes one heap profile right after
# World.Start and one after the run; the first is the set-up (building the
# topology and the world, and starting it), the difference of the two is
# the run phase, the part `allocs_per_pkt_hop` divides by packet-hops.
# Prints both totals, the $TOP (default 15) functions with the most run-phase
# allocations (flat and cumulative counts), and the counts of every
# function matching $FOCUS (default: the TopoSense pass and its
# controller). The .start profile's own writing happens after the
# snapshot it records, so it lands in the final profile: every count here
# drops the samples under prof.WriteHeap. The profiles stay in
# $BENCH_DIR/hotallocs/ for `go tool pprof -diff_base` proper (add
# -ignore='prof\.WriteHeap' -focus='^toposense/' there too). Recording
# every allocation makes a run several times slower. The profile counts
# the tiny allocator's 16-byte blocks, not the pointer-free objects under
# 16 bytes packed into them, so a site that makes many of those reads low
# against runtime.MemStats.Mallocs (which allocs_per_pkt_hop counts).
#
# Two runtime mechanisms would move the totals by a few allocations from
# run to run, and both are shut out:
#   - Whether a tiny allocation opens a new 16-byte block (the profile
#     counts blocks) depends on which P's block it lands in and on when a
#     GC cycle resets the blocks: toposim runs under GOMAXPROCS=1 and
#     GOGC=off (a workload allocates under 100 MB in all).
#   - The runtime's own goroutines allocate (runtime.acquireSudog and the
#     like, stacks with no program frame): -focus keeps only samples with a
#     toposense/ frame.
# A third is not: an assertion to an interface type builds a per-call-site
# cache at random calls (runtime.typeAssert), and the heap profile drops
# the runtime frames above the asserting line, so no filter can tell those
# samples apart. They move a total by up to about 5 (DESIGN.md §5 names
# the lines).
set -eu

cd "$(dirname "$0")/.."
. scripts/workloads.sh
out=${BENCH_DIR:-bench}/hotallocs
top=${TOP:-15}
focus=${FOCUS:-'core\.\(\*Algorithm\)\.Step$|controller\.\(\*Controller\)\.step$'}
pp="go tool pprof -sample_index=alloc_objects -ignore=prof\.WriteHeap -focus=^toposense/"
mkdir -p "$out"
go build -o "$out/toposim" ./cmd/toposim

# total prints the allocation count a profile holds. pprof's "of N total"
# ignores -ignore, so sum every node that is left instead.
total() { $pp -top -nodecount=1000000 -nodefraction=0 "$out/toposim" "$1" 2>/dev/null | sed -n 's/.*accounting for \([0-9]*\),.*/\1/p'; }

# shellcheck disable=SC2086 # the default is a word list
[ $# -gt 0 ] || set -- $WORKLOADS
for w in "$@"; do
	args=$(spec "$w")
	# shellcheck disable=SC2086 # the spec is a flag list
	GOMAXPROCS=1 GOGC=off "$out/toposim" $args -memprofile "$out/$w.pprof" | grep '^run:' | sed "s/^run:/== $w:/"
	setup=$(total "$out/$w.pprof.start")
	echo "  set-up allocations: $setup"
	echo "  run-phase allocations: $(($(total "$out/$w.pprof") - setup))"
	# Diff mode states percentages of the base profile's total: keep counts.
	$pp -diff_base "$out/$w.pprof.start" -top -nodecount="$top" "$out/toposim" "$out/$w.pprof" 2>/dev/null |
		awk '/^ *flat / || /^ *-?[0-9]/ { name = $6; for (i = 7; i <= NF; i++) name = name " " $i
			printf "  %10s %10s  %s\n", $1, $4, name }'
	echo "  functions matching $focus:"
	$pp -diff_base "$out/$w.pprof.start" -top -cum -nodecount=1000 -nodefraction=0 "$out/toposim" "$out/$w.pprof" 2>/dev/null |
		awk -v focus="$focus" '$NF ~ focus { printf "  %10s %10s  %s\n", $1, $4, $NF }'
done
