#!/usr/bin/env bash
# Pipeline performance gate: runs every pipebench workload that
# BENCHMARK.json defines RUNS times (round-robin, so host drift spreads
# over all of them), takes the median of each end-to-end metric, and
# compares it with the committed baseline results/BENCH_pipeline.json.
#
#   scripts/pipegate.sh            check: exit 1 on any failed run or any
#                                  metric worse than its bound
#   scripts/pipegate.sh --record   write the medians as the new baseline
#
# A metric's direction (`better`) and bound come from BENCHMARK.json at
# run time. "ratio" is how many times worse than the baseline the median
# is (median/baseline when lower is better, baseline/median when higher
# is better); a metric fails when ratio > 1 + bound. sim_replay's
# sim_kcycles_per_s is held to 0.20 at most, the bound of the
# simulator-only gate this one replaced. Times are probe-scaled by
# pipebench itself (pipebench/README.md). peak_rss_mb grows with the
# number of timed requests, so the run length is pinned: check mode
# refuses a baseline recorded with another seed, run length or run count.
set -euo pipefail
cd "$(dirname "$0")/.."

SEED=1
RUN_SECONDS=5
RUNS=3
BASELINE=results/BENCH_pipeline.json

record=0
case "${1:-}" in
  "") ;;
  --record) record=1 ;;
  *) echo "usage: $0 [--record]" >&2; exit 2 ;;
esac
command -v jq >/dev/null || { echo "error: pipegate needs jq" >&2; exit 2; }

if [[ "$record" == 0 ]]; then
  [[ -f "$BASELINE" ]] || { echo "error: no baseline $BASELINE (record one with --record)" >&2; exit 1; }
  recorded=$(jq -c '[.seed, .seconds, .runs]' "$BASELINE")
  if [[ "$recorded" != "[$SEED,$RUN_SECONDS,$RUNS]" ]]; then
    echo "error: $BASELINE was recorded with [seed, seconds, runs] = $recorded;" \
      "this gate runs [$SEED,$RUN_SECONDS,$RUNS]. Re-record it with --record." >&2
    exit 1
  fi
fi

mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
mapfile -t bench_cmd < <(jq -r '.command[]' BENCHMARK.json)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== build pipebench"
cargo build --release --offline --manifest-path pipebench/Cargo.toml

failed_runs=()
for round in $(seq "$RUNS"); do
  for w in "${workloads[@]}"; do
    echo "== round $round/$RUNS: $w"
    out="$tmp/$w.$round.out"
    if ! "${bench_cmd[@]}" --workload "$w" --seed "$SEED" --seconds "$RUN_SECONDS" --trace 0 >"$out"; then
      tail -n 20 "$out"
      failed_runs+=("$w (round $round): exit status nonzero")
      continue
    fi
    tail -n 1 "$out" >"$tmp/$w.$round.json"
    verdict=$(jq -r 'if .correct != true then "correct is not true"
                     elif .failed > 0 then "\(.failed) failed requests"
                     else "ok" end' "$tmp/$w.$round.json") || verdict="unreadable result line"
    if [[ "$verdict" != ok ]]; then
      failed_runs+=("$w (round $round): $verdict")
    fi
  done
done
if [[ ${#failed_runs[@]} -gt 0 ]]; then
  echo "pipegate: FAIL — runs that did not pass their own checks:" >&2
  printf '  %s\n' "${failed_runs[@]}" >&2
  exit 1
fi

# {workload: {metric: median}} over the RUNS result lines of each workload.
medians=$(
  for w in "${workloads[@]}"; do
    jq -s --arg w "$w" 'map(.metrics | map_values(.value)) as $runs
      | {($w): ($runs[0] | with_entries(.key as $k
          | .value = ($runs | map(.[$k]) | sort | .[length / 2 | floor])))}' "$tmp/$w".*.json
  done | jq -s 'add'
)

if [[ "$record" == 1 ]]; then
  jq -n --argjson m "$medians" --argjson seed "$SEED" --argjson seconds "$RUN_SECONDS" \
    --argjson runs "$RUNS" '{seed: $seed, seconds: $seconds, runs: $runs, workloads: $m}' >"$BASELINE"
  echo "pipegate: recorded the medians of $RUNS runs in $BASELINE"
  exit 0
fi

rows=$(jq -rn --argjson m "$medians" --slurpfile base "$BASELINE" --slurpfile bench BENCHMARK.json '
  $bench[0] as $b
  | $b.workloads[].name as $w
  | $b.end_to_end[] as $e
  | ($base[0].workloads[$w][$e.name]) as $old
  | ($m[$w][$e.name]) as $new
  | (if $w == "sim_replay" and $e.name == "sim_kcycles_per_s" then [$e.bound, 0.20] | min
     else $e.bound end) as $bound
  | if ($old | type) != "number" or $old <= 0 or ($new | type) != "number" or $new <= 0 then
      [$w, $e.name, $old, $new, "-", $bound, "FAIL (no positive baseline or median)"]
    else
      (if $e.better == "lower" then $new / $old else $old / $new end) as $ratio
      | [$w, $e.name, $old, $new, $ratio, $bound, (if $ratio > 1 + $bound then "FAIL" else "ok" end)]
    end
  | map(. // "-") | @tsv')

num() { if [[ "$2" =~ ^-?[0-9][0-9.eE+-]*$ ]]; then printf "$1" "$2"; else printf '%s' "${2:--}"; fi; }
printf '%-14s %-22s %14s %14s %7s %6s  %s\n' workload metric baseline median ratio bound verdict
fails=()
while IFS=$'\t' read -r w metric old new ratio bound verdict; do
  printf '%-14s %-22s %14s %14s %7s %6s  %s\n' "$w" "$metric" "$(num %.6g "$old")" \
    "$(num %.6g "$new")" "$(num %.3f "$ratio")" "$bound" "$verdict"
  [[ "$verdict" == ok ]] || fails+=("$w/$metric")
done <<<"$rows"

if [[ ${#fails[@]} -gt 0 ]]; then
  echo "pipegate: FAIL — worse than the baseline by more than the bound: ${fails[*]}" >&2
  exit 1
fi
echo "pipegate: OK"
