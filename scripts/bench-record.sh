#!/usr/bin/env bash
# Runs the benchmark once per workload and appends one row per run to
# BENCHMARK_ROWS.json at the repo root: {commit, workload, seed, seconds,
# result}, where result is the run's last output line (its JSON), unchanged.
#
#   scripts/bench-record.sh [checkout]
#
# checkout (default: this repo) is the tree that is built and run, so the
# rows of another commit come from a second checkout of it (git clone); the
# rows land in this repo's file either way. commit is the checkout's
# `git describe --always --dirty`: a "-dirty" row ran uncommitted changes on
# top of that commit. Needs git and jq.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
checkout="$(cd "${1:-$root}" && pwd)"
rows="$root/BENCHMARK_ROWS.json"
seed=1
seconds=24
commit="$(git -C "$checkout" describe --always --dirty --abbrev=7 --exclude='*')"

if [[ ! -f "$rows" ]]; then
	jq -n '{
		about: "One row per benchmark run (scripts/bench-record.sh): the commit that was built, the workload, seed and time budget, and result, the last line benchmark/run.sh printed, unchanged. Modeled and count metrics repeat exactly per seed, so one row per commit compares them. Wall-clock metrics (setup_s, the *_per_s rates, cpu_us_per_page, live_heap_mb) are single runs on a shared host: compare two commits only over alternating pairs of runs, never one row against another.",
		rows: []
	}' >"$rows"
fi

for workload in write_offload read_mostly ingest_fanin attack_recover; do
	result="$(bash "$checkout/benchmark/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)"
	jq --arg commit "$commit" --arg workload "$workload" --argjson seed "$seed" --argjson seconds "$seconds" \
		--argjson result "$result" \
		'.rows += [{commit: $commit, workload: $workload, seed: $seed, seconds: $seconds, result: $result}]' \
		"$rows" >"$rows.tmp"
	mv "$rows.tmp" "$rows"
	echo "$commit $workload recorded" >&2
done
