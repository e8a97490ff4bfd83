#!/bin/sh
# Benchmark harness driver for the root package: capture the exploration +
# engine benchmarks as a JSON event stream (go test -json), compare two
# captures, or check a capture for staleness against bench_test.go.
#
#   scripts/bench.sh [out.json] [bench-regex]
#       Capture mode (default). Runs the benchmark grid and writes the
#       event stream to out.json (default BENCH_after.json), then appends
#       the machine's CPU count as one more output event ("numcpu: N").
#       The committed BENCH_baseline.json was captured on the
#       clone-per-child core immediately before the mutate-and-undo
#       rewrite of the exploration core.
#
#   scripts/bench.sh compare [old.json] [new.json]
#       Delta table: ns/op and allocs/op for every benchmark present in
#       both captures, with the old/new ratio — no manual diffing of the
#       two JSON files. Defaults: old=BENCH_baseline.json,
#       new=BENCH_after.json. If new.json does not exist it is captured
#       first (that is, "compare" runs baseline-vs-current by default).
#       Each side's environment is printed first, read from the capture:
#       its "cpu:" line, its CPU count (the "numcpu:" event; "unknown" in
#       older captures) and its GOMAXPROCS (the -N suffix of the result
#       names; none means 1). When the two differ,
#       compare prints no table and exits 1: ratios across machines or core
#       counts measure the machines. The committed BENCH_baseline.json and
#       BENCH_after.json come from different machines, so compare two
#       captures made on one.
#
#   scripts/bench.sh check [out.json]
#       Staleness gate (CI): fails if any Benchmark* function of
#       bench_test.go has no result line in out.json, i.e. the committed
#       capture predates the current benchmark grid.
set -e

cd "$(dirname "$0")/.."

# The whole harness: the check mode gates BENCH_after.json on every
# Benchmark* function of bench_test.go, so the capture must cover them all.
default_pat='.'

# extract_results file: the benchmark result lines of a -json capture.
# test2json can flush a long result line across several Output events, so
# the events are concatenated first and re-split on the escaped newlines;
# then tabs are restored and only measurement lines kept.
extract_results() {
	grep -o '"Output":"[^"]*"' "$1" | sed 's/^"Output":"//;s/"$//' | tr -d '\n' |
		sed 's/\\n/\n/g;s/\\t/\t/g' | grep -E '^Benchmark.* ns/op'
}

# environment file: the capture's "cpu:" line, its CPU count and the
# GOMAXPROCS values its result names carry.
environment() {
	cpu=$(grep -o '"Output":"cpu: [^"]*' "$1" | head -n 1 | sed 's/^"Output":"cpu: //;s/\\n$//')
	numcpu=$(grep -o '"Output":"numcpu: [0-9]*' "$1" | head -n 1 | sed 's/^"Output":"numcpu: //')
	procs=$(extract_results "$1" | awk -F'\t' '{
		name = $1; gsub(/ +$/, "", name)
		if (match(name, /-[0-9]+$/)) print substr(name, RSTART + 1); else print 1
	}' | sort -un | tr '\n' ',' | sed 's/,$//')
	echo "cpu: ${cpu:-unknown}, NumCPU ${numcpu:-unknown}, GOMAXPROCS ${procs:-unknown}"
}

capture() {
	out=$1
	pat=$2
	go test -json -run '^$' -bench "$pat" -benchmem -count 1 . >"$out"
	# GOMAXPROCS alone does not tell a one-CPU machine from a
	# GOMAXPROCS=1 run on a larger one, so record the CPU count too (nproc
	# counts the CPUs this process may run on, as Go's runtime.NumCPU does).
	printf '{"Action":"output","Package":"accltl","Output":"numcpu: %s\\n"}\n' "$(nproc)" >>"$out"
	echo "wrote $out" >&2
	extract_results "$out" >&2
}

case "${1:-}" in
compare)
	old=${2:-BENCH_baseline.json}
	new=${3:-BENCH_after.json}
	[ -f "$old" ] || { echo "bench.sh: baseline $old not found" >&2; exit 1; }
	if [ ! -f "$new" ]; then
		echo "bench.sh: $new not found, capturing current numbers first" >&2
		capture "$new" "$default_pat"
	fi
	oldenv=$(environment "$old")
	newenv=$(environment "$new")
	echo "old $old: $oldenv"
	echo "new $new: $newenv"
	if [ "$oldenv" != "$newenv" ]; then
		echo "bench.sh: the captures come from different environments; capture both on one machine" >&2
		exit 1
	fi
	{ extract_results "$old" | sed 's/^/OLD\t/'; extract_results "$new" | sed 's/^/NEW\t/'; } | awk -F'\t' '
	{
		# $2 = name-N, $3 = iterations, then "<v> ns/op", "<v> B/op", "<v> allocs/op".
		name = $2; sub(/-[0-9]+ *$/, "", name); gsub(/ +$/, "", name)
		ns = ""; allocs = ""
		for (i = 4; i <= NF; i++) {
			if ($i ~ / ns\/op/)     { v = $i; sub(/ ns\/op.*/, "", v); ns = v + 0 }
			if ($i ~ / allocs\/op/) { v = $i; sub(/ allocs\/op.*/, "", v); allocs = v + 0 }
		}
		if ($1 == "OLD") { ons[name] = ns; oal[name] = allocs }
		else             { nns[name] = ns; nal[name] = allocs; if (!(name in order)) { order[name] = ++n; names[n] = name } }
	}
	END {
		printf "%-60s %14s %14s %7s %12s %12s %7s\n", "benchmark", "old ns/op", "new ns/op", "ratio", "old allocs", "new allocs", "ratio"
		for (i = 1; i <= n; i++) {
			name = names[i]
			if (!(name in ons)) { printf "%-60s %14s %14s %7s %12s %12s %7s\n", name, "-", nns[name], "new", "-", nal[name], "new"; continue }
			rn = (nns[name] > 0) ? ons[name] / nns[name] : 0
			ra = (nal[name] > 0) ? oal[name] / nal[name] : 0
			printf "%-60s %14s %14s %6.2fx %12s %12s %6.2fx\n", name, ons[name], nns[name], rn, oal[name], nal[name], ra
		}
	}'
	;;
check)
	out=${2:-BENCH_after.json}
	[ -f "$out" ] || { echo "bench.sh: $out not found" >&2; exit 1; }
	missing=0
	for name in $(grep '^func Benchmark' bench_test.go | sed 's/func \(Benchmark[A-Za-z0-9_]*\).*/\1/'); do
		# Anchor past the name so a benchmark cannot satisfy the gate via a
		# longer benchmark it prefixes (BenchmarkExplore vs
		# BenchmarkExploreParallel): a result line continues with a
		# sub-benchmark slash, the -N proc suffix, or an escaped \t / \n.
		if ! grep -q -E "\"Output\":\"$name(/|-[0-9]+|\\\\[nt])" "$out"; then
			echo "bench.sh: $out is stale: no results for $name" >&2
			missing=1
		fi
	done
	[ "$missing" -eq 0 ] && echo "bench.sh: $out covers every benchmark in bench_test.go" >&2
	exit $missing
	;;
*)
	capture "${1:-BENCH_after.json}" "${2:-$default_pat}"
	;;
esac
