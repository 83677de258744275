#!/usr/bin/env bash
# Compares the working tree against a parent commit on the host-time
# ledger, by the method BENCHMARK.json's driver uses:
#
#   bench/compare.sh <parent-ref> [workload…] > bench/BENCH_<pr>.json
#
# Both trees are exported to their own directories under
# .bench_build/compare/ (the parent with git archive; the change as the
# working tree's tracked and untracked-but-not-ignored files), each
# builds the benchmark from its own source, and
#
#   bash benchmark/run.sh --workload W --seed S --seconds 10 --trace 0
#
# runs once per side and seed on ten seeds per workload, the side that
# goes first alternating from seed to seed.  The first seed is one past
# the highest any bench/BENCH_*.json records, so no seed is used twice.
# bench/compare (go run ./bench/compare) turns the runs into the
# document on standard output; progress goes to standard error.  Run it
# on an otherwise idle host.
set -euo pipefail

if [ $# -lt 1 ]; then
	echo "usage: bench/compare.sh <parent-ref> [workload…] > bench/BENCH_<pr>.json" >&2
	exit 2
fi
root="$(git rev-parse --show-toplevel)"
cd "$root"
parent="$(git rev-parse --verify "$1^{commit}")"
shift
if [ $# -gt 0 ]; then
	workloads=("$@")
else
	mapfile -t workloads < <(sed -n '/"workloads"/,/\]/s/.*"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json)
fi
pairs=10 # per workload: the verdict rule asks for nine of ten
last="$(grep -hoE '"seeds?": *\[?[0-9, ]+' bench/BENCH_*.json 2>/dev/null | grep -oE '[0-9]+' | sort -n | tail -1)"
seed0=$(( ${last:-0} + 1 ))

work="$root/.bench_build/compare"
rm -rf "$work"
mkdir -p "$work/parent" "$work/change"
git archive "$parent" | tar -x -C "$work/parent"
git ls-files -z --cached --others --exclude-standard |
	tar --null --ignore-failed-read -T - -cf - 2>/dev/null | tar -x -C "$work/change"

runs="$work/runs.jsonl"
: > "$runs"
one() { # side workload seed first
	local result
	result="$(cd "$work/$1" && bash benchmark/run.sh --workload "$2" --seed "$3" --seconds 10 --trace 0 | tail -n 1)"
	printf '{"workload":"%s","seed":%d,"side":"%s","first":"%s","result":%s}\n' "$2" "$3" "$1" "$4" "$result" >> "$runs"
}
for w in "${workloads[@]}"; do
	for ((i = 0; i < pairs; i++)); do
		seed=$((seed0 + i))
		if ((i % 2 == 0)); then first=parent second=change; else first=change second=parent; fi
		echo "compare: $w seed $seed ($first first)" >&2
		one "$first" "$w" "$seed" "$first"
		one "$second" "$w" "$seed" "$first"
	done
done

change="working tree of $(git rev-parse --short HEAD)"
if [ -n "$(git status --porcelain)" ]; then change="$change + uncommitted changes"; fi
GOCACHE="$root/.bench_build/go-cache" go run ./bench/compare -parent "$parent" -change "$change" < "$runs"
