#!/bin/sh
# sameoutput.sh - does this checkout produce the same model output as another?
#
# Usage:
#   scripts/sameoutput.sh PARENT_DIR      (or: make same-output PARENT=DIR)
#
# Builds toposim and topobench in this checkout and in PARENT_DIR (typically
# a `git clone` of the parent commit) and runs, on each side:
#   - toposim over a fixed spec list: the four repository-benchmark workload
#     specs (scripts/workloads.sh) plus one run per switch -- RLM, federated
#     churn, aggregation with explain, probe discovery, staleness, a
#     bottleneck outage, churn on two shards -- each also writing its -obs
#     export;
#   - topobench -quick -obs -json, so every experiment's result carries
#     its world's obs export;
#   - make examples.
# It then diffs the two sides with the host-dependent parts removed:
# toposim's `run:` line, topobench's `total wall time:` line, fig_scale's
# host-time columns (events/s, wall s, speedup, pass mean/max ms), the
# JSON's wall-clock, throughput, allocation and pass-latency fields, and,
# on sharded runs, the obs exports' flight-recorder tail (shards record
# into it in host order; the default quick sweep runs no shards). Exits 1
# on any difference, printing it; the captures stay in
# $BENCH_DIR/sameoutput/{new,parent}.
set -eu

cd "$(dirname "$0")/.."
[ $# -eq 1 ] || { echo "usage: $0 PARENT_DIR" >&2; exit 2; }
parent=$(cd "$1" && pwd)
mkdir -p "${BENCH_DIR:-bench}/sameoutput"
out=$(cd "${BENCH_DIR:-bench}/sameoutput" && pwd)

. scripts/workloads.sh

specs() {
	for w in $WORKLOADS; do
		spec "$w"
	done
	cat <<EOF
-algo rlm
-topo tiered -federate -churn 4
-aggregate -explain
-probe
-staleness 6
-failat 200 -outage 60
-churn 4 -shards 2
EOF
}

# strip_bench drops topobench's wall-time line and fig_scale's host columns;
# the table's padding follows its widest cell, so that table's rows are
# re-joined with single spaces and its dash rule is dropped.
strip_bench() {
	awk '
		/^total wall time:/ { next }
		/^fig_scale: / { scale = 1; print; next }
		scale && /^$/ { scale = 0 }
		scale && /^-+ / { next }
		scale && /^topology / { $1 = $1; print; next }
		scale { $5 = $6 = $7 = $10 = $11 = ""; $1 = $1; print; next }
		{ print }'
}

# strip_obs ARGS drops an obs export's host-dependent part: the flight
# recorder when ARGS runs on shards.
strip_obs() {
	case "$1" in
	*-shards*) flight=1 ;;
	*) flight=0 ;;
	esac
	awk -v flight="$flight" '
		flight && /^  "flight": \[/ { skip = 1; next }
		skip { if (/^  \],?$/) skip = 0; next }
		{ print }'
}

# capture DIR SIDE builds DIR's commands and writes SIDE's stripped outputs.
# toposim runs inside SIDE so the export path it echoes is the same on both.
capture() {
	side=$out/$2
	rm -rf "$side"
	mkdir -p "$side/obs"
	(cd "$1" && go build -o "$side/toposim" ./cmd/toposim && go build -o "$side/topobench" ./cmd/topobench)
	n=0
	specs | while read -r args; do
		n=$((n + 1))
		echo "== toposim $args"
		# shellcheck disable=SC2086 # the spec is a flag list
		{ (cd "$side" && ./toposim $args -obs "obs/$n.json") 2>&1 || echo "exit $?"; } | grep -v '^run: '
		if [ -f "$side/obs/$n.json" ]; then
			strip_obs "$args" <"$side/obs/$n.json" >"$side/obs/$n.stripped.json"
		fi
	done >"$side/toposim.txt"
	{ "$side/topobench" -quick -progress=false -obs -json "$side/quick.json" 2>/dev/null || echo "exit $?"; } | strip_bench >"$side/topobench.txt"
	{ (cd "$1" && make -s --no-print-directory examples) 2>&1 || echo "exit $?"; } >"$side/examples.txt"
	grep -v -E '"(generated_at|gomaxprocs|parallelism|wall_seconds|events_per_second|allocs_per_event|pass_mean_ms|pass_max_ms)":' \
		"$side/quick.json" >"$side/quick.stripped.json"
}

capture . new
capture "$parent" parent
status=0
# Each toposim hunk header names the spec it falls in.
diff -u -F '^== toposim ' "$out/parent/toposim.txt" "$out/new/toposim.txt" || status=1
for f in topobench.txt quick.stripped.json examples.txt; do
	diff -u "$out/parent/$f" "$out/new/$f" || status=1
done
for f in "$out"/parent/obs/*.stripped.json; do
	diff -u "$f" "$out/new/obs/${f##*/}" || status=1
done
if [ "$status" -eq 0 ]; then
	echo "sameoutput OK: $(specs | wc -l) toposim runs, their obs exports, topobench -quick -obs and make examples match $parent"
fi
exit "$status"
