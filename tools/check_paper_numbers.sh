#!/bin/sh
# Runs a paper bench in full and checks every virtual number it prints
# against EXPERIMENTS.md: each row of the experiment's markdown table must
# equal the bench's row exactly, and each headline figure the section
# quotes in prose (slowdown factors, checkpoint-mode runtimes, reductions)
# must appear there verbatim.  The numbers are virtual seconds from the
# deterministic simulator, so any difference is a regression.
#
# Usage:
#   tools/check_paper_numbers.sh table1|fig3 <bench-binary> <EXPERIMENTS.md>
#
# The bench writes its BENCH_*.json into the current directory.  The
# `paper_table1` / `paper_fig3` ctests (label `paper`) and the `paper-gate`
# build target run this script.
set -eu

if [ "$#" -ne 3 ]; then
  echo "usage: $0 table1|fig3 <bench-binary> <EXPERIMENTS.md>" >&2
  exit 2
fi
experiment=$1
bin=$2
doc=$3

case "$experiment" in
  table1) heading='## Table 1' ;;
  fig3) heading='## Fig. 3' ;;
  *) echo "check_paper_numbers.sh: unknown experiment '$experiment'" >&2
     exit 2 ;;
esac
for f in "$bin" "$doc"; do
  if [ ! -e "$f" ]; then
    echo "check_paper_numbers.sh: missing $f" >&2
    exit 1
  fi
done

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# The full workload: the smoke switch would shrink it.
unset CORBAFT_BENCH_SMOKE
"$bin" > "$work/output"
cat "$work/output"

# The experiment's section of EXPERIMENTS.md, up to the next `## ` heading.
awk -v h="$heading" '
  index($0, h) == 1 { inside = 1; next }
  inside && /^## / { exit }
  inside { print }' "$doc" > "$work/section"

# Table rows, normalized to "cell|cell|...": thousands separators dropped,
# the documents' "—" for a missing point written as the bench's "-".
if [ "$experiment" = table1 ]; then
  awk -F'|' '/^\| [0-9][0-9,]* \|/ {
      row = ""
      for (i = 2; i < NF; ++i) {
        cell = $i; gsub(/[ ,]/, "", cell)
        row = row (i > 2 ? "|" : "") cell
      }
      print row
    }' "$work/section" > "$work/expected"
  awk 'NF == 4 && $1 ~ /^[0-9]+$/ && $2 ~ /^[0-9.]+$/ {
      print $1 "|" $2 "|" $3 "|" $4
    }' "$work/output" > "$work/actual"
else
  awk -F'|' '/^\| CORBA/ {
      row = ""
      for (i = 2; i < NF; ++i) {
        cell = $i; gsub(/^ +| +$/, "", cell)
        if (cell == "—") cell = "-"
        row = row (i > 2 ? "|" : "") cell
      }
      print row
    }' "$work/section" > "$work/expected"
  awk '/^CORBA/ {
      row = substr($0, 1, 22); sub(/ +$/, "", row)
      n = split(substr($0, 23), cells, " ")
      for (i = 1; i <= n; ++i) row = row "|" cells[i]
      print row
    }' "$work/output" > "$work/actual"
fi

status=0
if [ ! -s "$work/expected" ]; then
  echo "check_paper_numbers.sh: no $experiment table rows in $doc" >&2
  status=1
elif ! diff -u "$work/expected" "$work/actual" > "$work/diff"; then
  echo "check_paper_numbers.sh: $experiment table differs from $doc" \
       "(- documented, + measured):" >&2
  cat "$work/diff" >&2
  status=1
fi

# Headline figures, formatted the way EXPERIMENTS.md quotes them.
awk -v experiment="$experiment" '
  experiment == "table1" {
    if (/^worst-case slowdown:/) { v = $3; sub(/x$/, "×", v); print v }
    if (/^Checkpoint-mode axis/) part = "axis"
    if (/^Synthetic per-call/) part = "synthetic"
    row = NF == 4 && $2 ~ /^[0-9.]+$/ &&
          ($1 == "full-sync" || $1 == "delta-async")
    if (part == "axis" && row) print $2
    if (part == "axis" && row && $1 == "delta-async") print $3 " %"
    if (part == "synthetic" && row) printf "%.1f\n", $3
    if (/^delta-async per-call overhead is/) { v = $5; sub(/x$/, "×", v); print v }
  }
  experiment == "fig3" && /runtime reduction/ {
    v = $NF; for (i = 1; i <= NF; ++i) if ($i ~ /^[0-9]+%$/) v = $i
    sub(/%$/, " %", v); print v
  }' "$work/output" > "$work/quotes"
if [ ! -s "$work/quotes" ]; then
  echo "check_paper_numbers.sh: no headline figures in the $experiment output" >&2
  status=1
fi
while IFS= read -r quote; do
  if ! grep -qF -- "$quote" "$work/section"; then
    echo "check_paper_numbers.sh: measured \"$quote\" is not what $doc says" >&2
    status=1
  fi
done < "$work/quotes"

if grep -qE 'WARNING|: NO' "$work/output"; then
  echo "check_paper_numbers.sh: the bench reported a failed claim" >&2
  status=1
fi
[ "$status" -eq 0 ] && echo "check_paper_numbers.sh: $experiment matches $doc"
exit "$status"
