#!/bin/sh
# hotlines.sh - the ten hottest source lines of each benchmark workload.
#
# Usage:
#   scripts/hotlines.sh [WORKLOAD...]     default: all four
#
# Runs the toposim spec behind each repository-benchmark workload
# (scripts/workloads.sh) with -cpuprofile and prints, per workload, the
# ten source lines with the most flat CPU samples, read out of
# `go tool pprof -list`. Per-line evidence is what tells a cache miss (one
# line, one load) from an algorithm (a whole function), so capture it before
# and after a layout change. Below the lines it prints the flat and
# cumulative time of every function matching $FOCUS (default: the event
# queue). A 1-2 s run is only 100-200 samples, so each workload runs $RUNS
# times (default 5) and the profiles are merged; they stay in
# $BENCH_DIR/hotlines/ for `go tool pprof` proper. Run it on an idle box.
set -eu

cd "$(dirname "$0")/.."
out=${BENCH_DIR:-bench}/hotlines
top=${TOP:-10}
runs=${RUNS:-5}
focus=${FOCUS:-'sim\.\(\*(equeue|eheap|Engine)\)'}
mkdir -p "$out"
go build -o "$out/toposim" ./cmd/toposim

. scripts/workloads.sh

# shellcheck disable=SC2086 # the default is a word list
[ $# -gt 0 ] || set -- $WORKLOADS
for w in "$@"; do
	args=$(spec "$w")
	rm -f "$out/$w".*.pprof
	for i in $(seq "$runs"); do
		# shellcheck disable=SC2086 # the spec is a flag list
		"$out/toposim" $args -cpuprofile "$out/$w.$i.pprof" | grep '^run:' | sed "s/^run:/== $w #$i:/"
	done
	# -list prints every routine's source as "flat cum line: text" rows; keep
	# the rows that have flat samples, tagged with their file.
	go tool pprof -unit ms -list '.' "$out/toposim" "$out/$w".*.pprof >"$out/$w.list" 2>/dev/null
	total=$(awk '/^Total:/ { print $2 + 0; exit }' "$out/$w.list")
	awk '
		/^ROUTINE =+ / { file = $NF; sub(".*/internal/", "internal/", file); sub(".*/go/src/", "", file); next }
		$1 ~ /ms$/ && $3 ~ /^[0-9]+:$/ {
			src = $0
			sub(/^[ \t]*[^ \t]+[ \t]+[^ \t]+[ \t]+[0-9]+:[ \t]*/, "", src)
			printf "%d %s:%s %s\n", $1 + 0, file, substr($3, 1, length($3) - 1), src
		}' "$out/$w.list" | sort -k1,1nr -s | head -n "$top" | awk -v total="$total" '
		{ ms = $1; $1 = ""; printf "  %5d ms %5.1f%% %s\n", ms, 100 * ms / total, $0 }'
	echo "  of $total ms; functions matching $focus (flat, cum):"
	awk -v focus="$focus" -v total="$total" '
		/^ROUTINE =+ / { fn = ($3 ~ focus) ? $3 : ""; next }
		fn != "" && /\(flat, cum\)/ { printf "  %5d ms %5.1f%% %5d ms  %s\n", $1 + 0, 100 * ($1 + 0) / total, $2 + 0, fn; fn = "" }
	' "$out/$w.list" | sort -k1,1nr -s
done
