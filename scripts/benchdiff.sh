#!/usr/bin/env bash
# Compare two benchmark snapshots (Go testing format, as written by
# perfsnapshot.sh) without external tools. Prints a per-benchmark table of
# median ns/op, B/op and allocs/op with the old→new delta.
#
# With --gate, exits non-zero if any benchmark matching the gate pattern
# regresses by more than the threshold in ns/op or allocs/op. This is the
# CI regression gate's decision logic, and its table is the report CI
# writes to the job summary.
#
# Usage: benchdiff.sh old.txt new.txt [--gate [pattern [threshold-pct]]]
set -euo pipefail

old="$1"
new="$2"
gate=0
pattern='^BenchmarkScenario/(steady|churn)$'
threshold=10
if [[ "${3:-}" == "--gate" ]]; then
  gate=1
  pattern="${4:-$pattern}"
  threshold="${5:-$threshold}"
fi

awk -v oldfile="$old" -v newfile="$new" -v gate="$gate" \
    -v pattern="$pattern" -v threshold="$threshold" '
function strip(name) {
  # Drop the -N GOMAXPROCS suffix so runs from hosts with different core
  # counts still line up.
  sub(/-[0-9]+$/, "", name)
  return name
}
function record(file, name, metric, v) {
  key = file SUBSEP name SUBSEP metric
  n = ++cnt[key]
  vals[key, n] = v
  seen[name] = 1
}
function median(file, name, metric,   key, n, i, j, tmp, a) {
  key = file SUBSEP name SUBSEP metric
  n = cnt[key]
  if (n == 0) return ""
  for (i = 1; i <= n; i++) a[i] = vals[key, i]
  for (i = 1; i <= n; i++)
    for (j = i + 1; j <= n; j++)
      if (a[j] < a[i]) { tmp = a[i]; a[i] = a[j]; a[j] = tmp }
  if (n % 2) return a[(n + 1) / 2]
  return (a[n / 2] + a[n / 2 + 1]) / 2
}
function fmtdelta(o, v) {
  if (o == "" || v == "" || o == 0) return "n/a"
  return sprintf("%+.1f%%", (v - o) / o * 100)
}
FNR == 1 { file = FILENAME }
/^Benchmark/ {
  name = strip($1)
  for (i = 2; i < NF; i++) {
    if ($(i + 1) == "ns/op")     record(file, name, "ns", $i + 0)
    if ($(i + 1) == "B/op")      record(file, name, "B", $i + 0)
    if ($(i + 1) == "allocs/op") record(file, name, "allocs", $i + 0)
  }
}
END {
  printf "%-55s %15s %15s %9s %11s %9s\n",
    "benchmark", "old ns/op", "new ns/op", "Δns", "Δallocs", "ΔB"
  bad = 0
  n = 0
  for (name in seen) order[++n] = name
  for (i = 1; i <= n; i++)
    for (j = i + 1; j <= n; j++)
      if (order[j] < order[i]) { tmp = order[i]; order[i] = order[j]; order[j] = tmp }
  for (i = 1; i <= n; i++) {
    name = order[i]
    ons = median(oldfile, name, "ns");     nns = median(newfile, name, "ns")
    oal = median(oldfile, name, "allocs"); nal = median(newfile, name, "allocs")
    ob  = median(oldfile, name, "B");      nb  = median(newfile, name, "B")
    printf "%-55s %15.1f %15.1f %9s %11s %9s\n",
      name, ons, nns, fmtdelta(ons, nns), fmtdelta(oal, nal), fmtdelta(ob, nb)
    short = name
    sub(/-[0-9]+$/, "", short)
    if (gate && short ~ pattern) {
      if (ons != "" && nns != "" && ons > 0 && (nns - ons) / ons * 100 > threshold) {
        printf "GATE FAIL: %s ns/op regressed %.1f%% (> %d%%)\n",
          name, (nns - ons) / ons * 100, threshold
        bad = 1
      }
      if (oal != "" && nal != "" && oal > 0 && (nal - oal) / oal * 100 > threshold) {
        printf "GATE FAIL: %s allocs/op regressed %.1f%% (> %d%%)\n",
          name, (nal - oal) / oal * 100, threshold
        bad = 1
      }
    }
  }
  exit bad
}
' "$old" "$new"
