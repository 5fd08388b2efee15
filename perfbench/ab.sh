#!/usr/bin/env bash
# Same-host A/B of two checkouts of this repository: pairs of benchmark runs
# of one workload on seeds 1..PAIRS, alternating which checkout runs first,
# then `perfbench compare` on the two sets of runs. Each run lasts
# BENCHMARK.json's run_seconds, the length the bounds were measured at.
#
#   bash perfbench/ab.sh PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS] [TRACE]
#
# Both checkouts need perfbench/. Logs go to CHANGE_DIR/.bench_build/ab/.
set -euo pipefail

if (($# < 3)); then
	sed -n '2,9p' "$0" >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3 pairs=${4:-10} trace=${5:-0}
seconds=$(sed -n 's/^ *"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$change/BENCHMARK.json")
if [[ -z $seconds ]]; then
	echo "ab.sh: no run_seconds in $change/BENCHMARK.json" >&2
	exit 2
fi
logs="$change/.bench_build/ab"
mkdir -p "$logs"
: >"$logs/parent.log"
: >"$logs/change.log"

run() { # side dir seed
	echo "pair $3: $1" >&2
	(cd "$2" && bash perfbench/run.sh --workload "$workload" --seed "$3" \
		--seconds "$seconds" --trace "$trace") >>"$logs/$1.log"
}

for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		run parent "$parent" "$i"
		run change "$change" "$i"
	else
		run change "$change" "$i"
		run parent "$parent" "$i"
	fi
done
cd "$change"
bash perfbench/run.sh compare -spec BENCHMARK.json -base "$logs/parent.log" -head "$logs/change.log"
