#!/usr/bin/env bash
# Shared CI gate and step-summary helpers over bench report JSON.
#
# Every CI job that inspects a report with jq goes through this script so the
# metric schema (.metrics[KEY].value, .host.jobs) is spelled out in exactly
# one place. Subcommands:
#
#   require-zero KEY FILE...
#       Fail (exit 1) unless .metrics[KEY].value is exactly 0 in every FILE.
#   require-zero-matching REGEX FILE...
#       Fail unless every metric whose key matches REGEX is exactly 0 in
#       every FILE; also fail if a FILE has no matching metric at all (a
#       silently-renamed key must not pass the gate).
#   wall-summary TITLE FILE...
#       Markdown table of .host.jobs and runner/wall_seconds per FILE, for
#       $GITHUB_STEP_SUMMARY. Missing files are skipped. Reports produced by
#       the in-process engine carry per-cell timings (engine/seconds/...);
#       for those, the five slowest cells follow so a perf regression names
#       its cell instead of hiding in a suite total.
#   wall-budget REPORT REFERENCE
#       Fail if REPORT's runner/wall_seconds exceeds the quick-suite budget
#       recorded in REFERENCE (a BENCH_PR7.json-style trajectory file with
#       .quick_suite.ci_budget.{reference_wall_seconds,max_regression}).
#       MEMSENTRY_WALL_BUDGET_SCALE (default 1.0) scales the budget for
#       slower hosts without editing the committed reference.
#   fastpath-summary ON_FILE OFF_FILE
#       Markdown table comparing each workload's summed engine cell seconds
#       (engine/seconds/<workload>/*) between a fastpath=on and a
#       fastpath=off report.
#   show FILE
#       Pretty-print FILE, failing the step if it is not valid JSON.
set -euo pipefail

die_usage() {
  echo "usage: $0 {require-zero KEY FILE...|require-zero-matching REGEX FILE...|wall-summary TITLE FILE...|wall-budget REPORT REFERENCE|fastpath-summary ON OFF|show FILE}" >&2
  exit 2
}

[ $# -ge 1 ] || die_usage
cmd=$1
shift

metric() { # metric KEY FILE
  jq -r --arg k "$1" '.metrics[$k].value // "?"' "$2"
}

case "$cmd" in
  require-zero)
    [ $# -ge 2 ] || die_usage
    key=$1
    shift
    fail=0
    for f in "$@"; do
      value=$(jq -r --arg k "$key" '.metrics[$k].value' "$f")
      echo "$f: $key=$value"
      if [ "$value" != "0" ]; then
        echo "::error::$f reports $key=$value (expected 0)"
        fail=1
      fi
    done
    exit "$fail"
    ;;

  require-zero-matching)
    [ $# -ge 2 ] || die_usage
    regex=$1
    shift
    fail=0
    for f in "$@"; do
      matches=$(jq -r --arg re "$regex" \
        '.metrics | to_entries[] | select(.key | test($re)) | "\(.key)=\(.value.value)"' "$f")
      if [ -z "$matches" ]; then
        echo "::error::$f has no metric matching /$regex/"
        fail=1
        continue
      fi
      count=$(printf '%s\n' "$matches" | wc -l)
      echo "$f: $count metric(s) match /$regex/"
      while IFS= read -r line; do
        if [ "${line##*=}" != "0" ]; then
          echo "::error::$f: $line (expected 0)"
          fail=1
        fi
      done <<< "$matches"
    done
    exit "$fail"
    ;;

  wall-summary)
    [ $# -ge 2 ] || die_usage
    title=$1
    shift
    echo "### $title"
    echo ""
    echo "| run | jobs | runner/wall_seconds |"
    echo "|---|---|---|"
    for f in "$@"; do
      [ -f "$f" ] || continue
      jobs=$(jq -r '.host.jobs // "?"' "$f")
      wall=$(metric runner/wall_seconds "$f")
      echo "| $f | $jobs | $wall |"
    done
    for f in "$@"; do
      [ -f "$f" ] || continue
      slowest=$(jq -r '.metrics | to_entries[]
          | select(.key | startswith("engine/seconds/"))
          | "\(.value.value)\t\(.key)"' "$f" | sort -gr | head -5)
      [ -n "$slowest" ] || continue
      echo ""
      echo "#### $f — five slowest engine cells"
      echo ""
      echo "| cell | seconds |"
      echo "|---|---|"
      while IFS=$'\t' read -r secs key; do
        echo "| ${key#engine/seconds/} | $secs |"
      done <<< "$slowest"
    done
    ;;

  wall-budget)
    [ $# -eq 2 ] || die_usage
    report=$1
    reference=$2
    wall=$(metric runner/wall_seconds "$report")
    if [ "$wall" = "?" ]; then
      echo "::error::$report has no runner/wall_seconds metric"
      exit 1
    fi
    scale=${MEMSENTRY_WALL_BUDGET_SCALE:-1.0}
    # jq does the float math so the gate stays dependency-free beyond what
    # the other subcommands already require.
    budget=$(jq -r --argjson scale "$scale" \
      '.quick_suite.ci_budget | .reference_wall_seconds * (1 + .max_regression) * $scale' \
      "$reference")
    echo "$report: runner/wall_seconds=$wall budget=$budget (reference=$reference, scale=$scale)"
    if [ "$(jq -n --argjson w "$wall" --argjson b "$budget" '$w > $b')" = "true" ]; then
      echo "::error::quick-suite wall ${wall}s exceeds budget ${budget}s — interpreter throughput regressed"
      exit 1
    fi
    ;;

  fastpath-summary)
    [ $# -eq 2 ] || die_usage
    on_file=$1
    off_file=$2
    echo "### fast-path on vs off — summed engine cell seconds per workload"
    echo ""
    echo "| workload | fastpath=on (s) | fastpath=off (s) |"
    echo "|---|---|---|"
    jq -rn --slurpfile on "$on_file" --slurpfile off "$off_file" '
      def cell_sums: reduce (.metrics | to_entries[]
          | select(.key | startswith("engine/seconds/"))) as $e
        ({}; .[$e.key | ltrimstr("engine/seconds/") | split("/")[0]] += $e.value.value);
      def ms: . * 1e4 | round / 1e4;
      ($off[0] | cell_sums) as $off_sums
      | $on[0] | cell_sums | to_entries[]
      | "| \(.key) | \(.value | ms) | \($off_sums[.key] | if . == null then "?" else ms end) |"'
    for f in "$on_file" "$off_file"; do
      wall=$(metric runner/wall_seconds "$f")
      echo "| total ($f) | $wall | |"
    done
    ;;

  show)
    [ $# -eq 1 ] || die_usage
    jq . "$1"
    ;;

  *)
    die_usage
    ;;
esac
