#!/bin/sh
# Double-run determinism smoke for one levee subcommand:
#
#   scripts/jobs_smoke.sh LEVEE TAG SUBCOMMAND [ARGS...]
#
# runs `LEVEE SUBCOMMAND ARGS --json --jobs N --record TAG-jN.jsonl` at
# N = 1 and N = 2 under LEVEE_COMMIT=TAG (so the record key is hermetic),
# with stdout in TAG-jN.json, then byte-compares the two documents and
# the two record files: every report is a pure function of its flags,
# never of the pool width. A run that exits non-zero (a violated
# invariant) fails the smoke too.
#
# It also checks that malformed numbers (`LEVEE -fuel abc`, `LEVEE -input
# 1,x`) are usage errors, exit 2, and never an uncaught exception.

set -eu

levee=$1
tag=$2
shift 2

for j in 1 2; do
  rm -f "$tag-j$j.jsonl"
  LEVEE_COMMIT=$tag "$levee" "$@" --json --jobs "$j" \
    --record "$tag-j$j.jsonl" > "$tag-j$j.json"
done
cmp "$tag-j1.json" "$tag-j2.json"
cmp "$tag-j1.jsonl" "$tag-j2.jsonl"

for bad in "-fuel abc" "-input 1,x"; do
  status=0
  # $bad is deliberately split into flag and value.
  # shellcheck disable=SC2086
  "$levee" $bad missing.c > "$tag-usage.out" 2>&1 || status=$?
  if [ "$status" -ne 2 ] || grep -q 'Fatal error' "$tag-usage.out"; then
    echo "levee $bad: want a usage error (exit 2), got exit $status:"
    cat "$tag-usage.out"
    exit 1
  fi
done
