#!/bin/sh
# CI entry point: build, full test suite, then the perf-regression gate.
#
# After the tests pass, the script appends fresh run-store records to
# RUNS.jsonl — the serve smoke matrix (one levee-serve/1 record per
# cell, via `levee serve --record`) and the fault campaign over the full
# protection spectrum (one levee-faults/3 record carrying the
# per-backend hijack counts, via `levee faults --record`) — and then
# runs `levee history --gate` for each appended config against the most
# recent earlier record of the same (schema, config, seed). The gate
# compares field-by-field under the default tolerances (simulated cycles
# and latency percentiles 5%, terminal accounting and hijack counts 0%);
# a key with no prior record is skipped — the append itself seeds the
# baseline the next CI run gates against, which is also how a deliberate
# schema bump re-baselines without tripping the gate on shape changes.
# Right after the build it fails if the interpreter is compiled with
# -opaque, i.e. without cross-module inlining.
# Host wall-clock speed is measured by `python3 benchmark/run.py`, not
# here; the script only prints the wall time of its `dune runtest` step,
# of the benchmark's `--self-test`, which it runs after the tests, and of
# its `levee faults --record` step.
#
# Usage: scripts/ci.sh

set -eu

cd "$(dirname "$0")/.."
STORE=RUNS.jsonl

echo "== build =="
dune build

# dune-workspace's release profile compiles without -opaque, so the
# interpreter inlines Cost, Mem and Safestore; the tests' wall time and
# the benchmark assume it. A lost workspace file or a dev profile brings
# -opaque back without any other sign.
interp_rules=$(dune rules ./lib/machine/.levee_machine.objs/native/levee_machine__Interp.cmx)
case $interp_rules in
  *-opaque*)
    echo "ci: FAIL: interp.ml is compiled with -opaque (no dune-workspace, or a dev profile)"
    exit 1 ;;
esac

echo "== tests =="
tests_start=$(date +%s)
dune runtest
echo "== tests: $(( $(date +%s) - tests_start )) s wall =="

# The benchmark's self-test runs generated 400-function programs to
# completion under every protection: the one full-length whole-program
# run, so it enters (and compiles on first use) every function.
echo "== whole programs: benchmark self-test =="
selftest_start=$(date +%s)
python3 benchmark/run.py --self-test
echo "== whole programs: $(( $(date +%s) - selftest_start )) s wall =="

LEVEE="dune exec --no-build bin/levee.exe --"

# How many records the store holds before this run's appends: configs
# appended below gate only against records at an index < BASE.
if [ -f "$STORE" ]; then
  BASE=$(grep -c . "$STORE")
else
  BASE=0
fi

echo "== append: serve smoke matrix =="
$LEVEE serve --requests 12000 --record "$STORE" > /dev/null

echo "== append: fault campaign (protection spectrum) =="
faults_start=$(date +%s)
$LEVEE faults --record "$STORE" > /dev/null
echo "== fault campaign: $(( $(date +%s) - faults_start )) s wall =="

# Gate every appended record against the most recent pre-existing
# record with the same (schema, config, seed) — serve appends one record
# per matrix seed under the same config name, and the schema in the key
# means a bumped record (new fields, new sweep shape) seeds a fresh
# baseline instead of tripping the gate against the old shape. Records
# are one JSON object per line; 0-based line indices are exactly the run
# specs `levee history --gate A B` consumes.
FAIL=0
TOTAL=$(grep -c . "$STORE")
i=$BASE
while [ "$i" -lt "$TOTAL" ]; do
  line=$(sed -n "$((i + 1))p" "$STORE")
  schema=$(printf '%s' "$line" | sed 's/.*"schema":"\([^"]*\)".*/\1/')
  config=$(printf '%s' "$line" | sed 's/.*"config":"\([^"]*\)".*/\1/')
  seed=$(printf '%s' "$line" | sed 's/.*"seed":\([0-9-]*\).*/\1/')
  key="\"schema\":\"$schema\",.*\"config\":\"$config\",\"seed\":$seed,"
  prev=$(head -n "$BASE" "$STORE" | grep -n "$key" \
         | tail -n 1 | cut -d: -f1 || true)
  if [ -n "$prev" ]; then
    echo "== gate: $config seed $seed (run $((prev - 1)) -> $i) =="
    if ! $LEVEE history --file "$STORE" --gate "$((prev - 1))" "$i"; then
      FAIL=1
    fi
  else
    echo "== gate: $schema $config seed $seed — no prior record, baseline seeded =="
  fi
  i=$((i + 1))
done

if [ "$FAIL" -ne 0 ]; then
  echo "ci: FAIL (regression gate)"
  exit 1
fi
echo "ci: OK"
