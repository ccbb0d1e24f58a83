#!/bin/sh
# hotallocs.sh - where each benchmark workload allocates while it runs.
#
# Usage:
#   scripts/hotallocs.sh [WORKLOAD...]     default: all four
#
# The allocation twin of hotlines.sh. Runs the toposim spec behind each
# repository-benchmark workload (scripts/workloads.sh) once with -memprofile,
# which records every allocation and writes one heap profile right after
# World.Start and one after the run; the difference of the two is the run
# phase, the part `allocs_per_pkt_hop` divides by packet-hops. Prints the
# total, the $TOP (default 15) functions with the most run-phase
# allocations (flat and cumulative counts), and the counts of every
# function matching $FOCUS (default: the TopoSense pass and its
# controller). The profiles stay in $BENCH_DIR/hotallocs/ for
# `go tool pprof -diff_base` proper. Recording every allocation makes a run
# several times slower. The profile counts the tiny allocator's 16-byte
# blocks, not the pointer-free objects under 16 bytes packed into them, so
# a site that makes many of those reads low against
# runtime.MemStats.Mallocs (which allocs_per_pkt_hop counts).
set -eu

cd "$(dirname "$0")/.."
. scripts/workloads.sh
out=${BENCH_DIR:-bench}/hotallocs
top=${TOP:-15}
focus=${FOCUS:-'core\.\(\*Algorithm\)\.Step$|controller\.\(\*Controller\)\.step$'}
pp="go tool pprof -sample_index=alloc_objects"
mkdir -p "$out"
go build -o "$out/toposim" ./cmd/toposim

# total prints the allocation count a profile holds.
total() { $pp -top -nodecount=1 "$out/toposim" "$1" 2>/dev/null | sed -n 's/.* of \([0-9]*\) total.*/\1/p'; }

# shellcheck disable=SC2086 # the default is a word list
[ $# -gt 0 ] || set -- $WORKLOADS
for w in "$@"; do
	args=$(spec "$w")
	# shellcheck disable=SC2086 # the spec is a flag list
	"$out/toposim" $args -memprofile "$out/$w.pprof" | grep '^run:' | sed "s/^run:/== $w:/"
	echo "  run-phase allocations: $(($(total "$out/$w.pprof") - $(total "$out/$w.pprof.start")))"
	# Diff mode states percentages of the base profile's total: keep counts.
	$pp -diff_base "$out/$w.pprof.start" -top -nodecount="$top" "$out/toposim" "$out/$w.pprof" 2>/dev/null |
		awk '/^ *flat / || /^ *-?[0-9]/ { name = $6; for (i = 7; i <= NF; i++) name = name " " $i
			printf "  %10s %10s  %s\n", $1, $4, name }'
	echo "  functions matching $focus:"
	$pp -diff_base "$out/$w.pprof.start" -top -cum -nodecount=1000 -nodefraction=0 "$out/toposim" "$out/$w.pprof" 2>/dev/null |
		awk -v focus="$focus" '$NF ~ focus { printf "  %10s %10s  %s\n", $1, $4, $NF }'
done
