#!/usr/bin/env bash
# Appends records of the benchmark to BENCH_e2e.json: RUNS runs of every
# workload (seeds SEED, SEED+1, …, 30 s each), three traced passes, and the
# mod-64 addresses of the sweep loops in the benchmark binary, whose
# alignment can move a kernel's time by a few percent between otherwise
# equal builds.
#
#   make bench-record RUNS=3 SEED=1 ROLE=change
#   make bench-record RUNS=3 SEED=1 PARENT=HEAD~1
#
# Without PARENT it records the tree it is run in (bench/run.sh -runs).
# With PARENT=<rev> it unpacks the committed files of rev into
# .bench_build/parent-<rev> (git archive: no worktree is registered), builds
# both trees and runs them alternately on the same seeds — run i, seed
# SEED+i, starts with the parent when i is even and with this tree when it
# is odd — so host drift falls on both sides alike, then the traced passes,
# alternated the same way. It appends two records, the parent's (ROLE
# "parent") and this tree's (ROLE "change"), and removes the unpacked
# parent.
#
# A record holds the commit (COMMIT, else git's HEAD, "-dirty" when the
# tree differs from it; the parent's is rev), ROLE and NOTE as given; the
# median of host.calib_ms and of every traced per-layer metric (layers),
# their quartiles (layer_quartiles) and every pass's values (layer_passes);
# and for every workload and end-to-end metric the median and quartiles of
# the runs (e2e) and every run's value in seed order (e2e_runs). Quartiles
# are Python's statistics.quantiles, the exclusive method, as bench
# -compare computes them. OUT names the file to append to. Needs jq.
set -euo pipefail

runs=${RUNS:-3} seed=${SEED:-1} role=${ROLE:-} note=${NOTE:-} parent=${PARENT:-}
passes=3 # traced passes a side
out=${OUT:-BENCH_e2e.json}
if [ "$runs" -lt 2 ]; then
	echo "bench-record: RUNS must be at least 2 for quartiles" >&2
	exit 1
fi
commit=${COMMIT:-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}
if [ -z "${COMMIT:-}" ] && [ -n "$(git status --porcelain --untracked-files=no 2>/dev/null)" ]; then
	commit="$commit-dirty"
fi
here=$PWD
dir=$here/.bench_build/record
mkdir -p "$dir"

# build TREE builds TREE's benchmark binary, TREE/.bench_build/nucleus-bench.
build() {
	rm -f "$1/.bench_build/nucleus-bench"
	(cd "$1" && bash bench/run.sh -h >/dev/null 2>&1) || true
	if [ ! -x "$1/.bench_build/nucleus-bench" ]; then
		echo "bench-record: building the benchmark in $1 failed" >&2
		exit 1
	fi
}

# traced TREE FILE writes the per-layer metrics of one traced pass in TREE
# to FILE.
traced() {
	(cd "$1" && ./.bench_build/nucleus-bench --workload lib_core --seed "$seed" --seconds 30 --trace 1 \
		--trace-out "$dir/trace.json" | tail -n 1) >"$2"
}

# append RUNS_FILE LAYERS_FILE BINARY COMMIT ROLE appends one record to OUT;
# LAYERS_FILE holds the traced passes' outputs as one JSON array.
append() {
	local addrs='{}' loops='^nucleus/internal/localhi\.(rowTau|update|sndSweep|andSweep|and\.func1)$'
	local addr kind name
	while read -r addr kind name; do
		if [[ $kind == T && $name =~ $loops ]]; then
			addrs=$(jq -c --arg k "${BASH_REMATCH[1]}" --argjson v $((16#$addr % 64)) '. + {($k): $v}' <<<"$addrs")
		fi
	done < <(go tool nm "$3")

	[ -f "$out" ] || echo '{"records": []}' >"$out"
	jq --slurpfile runs "$1" --slurpfile layers "$2" \
		--arg commit "$4" --arg role "$5" --arg note "$note" \
		--arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" --argjson nproc "$(nproc)" \
		--argjson seed "$seed" --argjson addrs "$addrs" '
		def quartiles: sort as $s | ($s | length) as $n
			| def cut(i): ([([(i * ($n + 1) / 4 | floor), 1] | max), $n - 1] | min) as $j
				| (i * ($n + 1) - $j * 4) as $d
				| ($s[$j - 1] * (4 - $d) + $s[$j] * $d) / 4;
			{q1: cut(1), median: cut(2), q3: cut(3)};
		def per_workload(f): $runs[0].runs | group_by(.workload) | map({(.[0].workload): (
			[.[].metrics | to_entries[]] | group_by(.key)
			| map({(.[0].key): ([.[].value.value] | f)}) | add)}) | add;
		($layers[0] | map(.metrics | map_values(.value))) as $passes
		| ($passes | map(keys) | add | unique
			| map(. as $k | {($k): ([$passes[][$k] | numbers] | quartiles)}) | add) as $lq
		| .records += [{
			commit: $commit, role: $role, note: $note, date: $date, nproc: $nproc,
			runs: ($runs[0].runs | length / 4), seed: $seed, seconds: 30,
			"host.calib_ms": $lq["host.calib_ms"].median,
			failed: ([$runs[0].runs[].failed] | add),
			e2e: per_workload(quartiles),
			e2e_runs: per_workload(.),
			layers: ($lq | map_values(.median)),
			layer_quartiles: $lq,
			layer_passes: $passes,
			kernel_addr_mod64: $addrs
		}]' "$out" >"$dir/record.json"
	mv "$dir/record.json" "$out"
	echo "bench-record: appended $4 ($5) to $out" >&2
}

if [ -z "$parent" ]; then
	bash bench/run.sh -runs "$runs" -seed "$seed" -seconds 30 -out "$dir/runs.json"
	for ((k = 0; k < passes; k++)); do
		traced "$here" "$dir/pass-$k.json"
	done
	jq -s . "$dir"/pass-[0-9]*.json >"$dir/layers.json"
	rm "$dir"/pass-[0-9]*.json
	append "$dir/runs.json" "$dir/layers.json" .bench_build/nucleus-bench "$commit" "$role"
	exit 0
fi

rev=$(git rev-parse --short "$parent^{commit}")
tree=$here/.bench_build/parent-$rev
rm -rf "$tree"
mkdir -p "$tree"
git archive "$rev" | tar -x -C "$tree"
build "$tree"
build "$here"
declare -A at=([parent]=$tree [change]=$here)
rm -f "$dir"/*-[0-9]*.json
for ((i = 0; i < runs; i++)); do
	sides="parent change"
	if ((i % 2 == 1)); then
		sides="change parent"
	fi
	for side in $sides; do
		(cd "${at[$side]}" && ./.bench_build/nucleus-bench -runs 1 -seed $((seed + i)) -seconds 30 \
			-out "$dir/$side-$i.json")
	done
done
for ((k = 0; k < passes; k++)); do
	sides="parent change"
	if ((k % 2 == 1)); then
		sides="change parent"
	fi
	for side in $sides; do
		traced "${at[$side]}" "$dir/$side-pass-$k.json"
	done
done
for side in parent change; do
	jq -s '{runs: map(.runs[])}' "$dir/$side"-[0-9]*.json >"$dir/$side-runs.json"
	jq -s . "$dir/$side"-pass-[0-9]*.json >"$dir/$side-layers.json"
	rm "$dir/$side"-[0-9]*.json "$dir/$side"-pass-[0-9]*.json
done
append "$dir/parent-runs.json" "$dir/parent-layers.json" "$tree/.bench_build/nucleus-bench" "$rev" parent
append "$dir/change-runs.json" "$dir/change-layers.json" .bench_build/nucleus-bench "$commit" change
rm -rf "$tree"
