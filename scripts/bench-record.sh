#!/usr/bin/env bash
# Appends one record of the benchmark on the tree it is run in to
# BENCH_e2e.json: RUNS runs of every workload (seeds SEED, SEED+1, …, 30 s
# each, bench/run.sh -runs), one traced pass, and the mod-64 addresses of
# the sweep loops in the benchmark binary, whose alignment can move a
# kernel's time by a few percent between otherwise equal builds.
#
#   make bench-record RUNS=3 SEED=1 ROLE=change
#
# The record holds the commit (COMMIT, else git's HEAD, "-dirty" when the
# tree differs from it), ROLE and NOTE as given, host.calib_ms and the
# traced per-layer metrics, and for every workload and end-to-end metric
# the median and quartiles of the runs (Python's statistics.quantiles,
# the exclusive method, as bench -compare computes them). OUT names the
# file to append to. Needs jq.
set -euo pipefail

runs=${RUNS:-3} seed=${SEED:-1} role=${ROLE:-} note=${NOTE:-}
out=${OUT:-BENCH_e2e.json}
if [ "$runs" -lt 2 ]; then
	echo "bench-record: RUNS must be at least 2 for quartiles" >&2
	exit 1
fi
commit=${COMMIT:-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}
if [ -z "${COMMIT:-}" ] && [ -n "$(git status --porcelain --untracked-files=no 2>/dev/null)" ]; then
	commit="$commit-dirty"
fi
dir=.bench_build/record
mkdir -p "$dir"

bash bench/run.sh -runs "$runs" -seed "$seed" -seconds 30 -out "$dir/runs.json"
./.bench_build/nucleus-bench --workload lib_core --seed "$seed" --seconds 30 --trace 1 \
	--trace-out "$dir/trace.json" | tail -n 1 >"$dir/layers.json"
addrs='{}'
loops='^nucleus/internal/localhi\.(rowTau|update|sndSweep|andSweep|and\.func1)$'
while read -r addr kind name; do
	if [[ $kind == T && $name =~ $loops ]]; then
		addrs=$(jq -c --arg k "${BASH_REMATCH[1]}" --argjson v $((16#$addr % 64)) '. + {($k): $v}' <<<"$addrs")
	fi
done < <(go tool nm .bench_build/nucleus-bench)

[ -f "$out" ] || echo '{"records": []}' >"$out"
jq --slurpfile runs "$dir/runs.json" --slurpfile layers "$dir/layers.json" \
	--arg commit "$commit" --arg role "$role" --arg note "$note" \
	--arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" --argjson nproc "$(nproc)" \
	--argjson seed "$seed" --argjson addrs "$addrs" '
	def quartiles: sort as $s | ($s | length) as $n
		| def cut(i): ([([(i * ($n + 1) / 4 | floor), 1] | max), $n - 1] | min) as $j
			| (i * ($n + 1) - $j * 4) as $d
			| ($s[$j - 1] * (4 - $d) + $s[$j] * $d) / 4;
		{q1: cut(1), median: cut(2), q3: cut(3)};
	($layers[0].metrics | map_values(.value)) as $l
	| .records += [{
		commit: $commit, role: $role, note: $note, date: $date, nproc: $nproc,
		runs: ($runs[0].runs | length / 4), seed: $seed, seconds: 30,
		"host.calib_ms": $l["host.calib_ms"],
		failed: ([$runs[0].runs[].failed] | add),
		e2e: ($runs[0].runs | group_by(.workload) | map({(.[0].workload): (
			[.[].metrics | to_entries[]] | group_by(.key)
			| map({(.[0].key): ([.[].value.value] | quartiles)}) | add)}) | add),
		layers: $l,
		kernel_addr_mod64: $addrs
	}]' "$out" >"$dir/record.json"
mv "$dir/record.json" "$out"
echo "bench-record: appended $commit ($role) to $out" >&2
