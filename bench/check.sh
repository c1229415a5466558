#!/bin/sh
# CI gate: type-check, run the full test suite, then verify that the
# observability layer costs nothing when disabled (bench/overhead_check.ml).
set -eu

cd "$(dirname "$0")/.."

echo "== dune build @check =="
dune build @check

echo "== dune runtest =="
dune runtest

echo "== hrt_lint (zero unwaived findings) =="
dune exec hrt_lint -- --root . lib bin

echo "== observability overhead gate =="
dune exec bench/overhead_check.exe

echo "== engine core smoke bench (quick) =="
# Small sizes: proves the harness runs and the wheel still beats the
# reference heap; the full-size regression gate is CI's enginebench job.
dune exec bin/hrt_sim.exe -- enginebench --quick --out /tmp/BENCH_engine_quick.json

echo "== analytical admission smoke =="
# A feasible set must be admitted (exit 0) with a certificate that
# replays, and the overloaded one rejected (exit 1) with a witness; the
# full cross-validation corpus is CI's admit job.
dune exec bin/hrt_sim.exe -- admit query P:1000:300 P:2000:400 S:50:1000
if dune exec bin/hrt_sim.exe -- admit query P:100:90; then
  echo "check.sh: overloaded set was admitted" >&2
  exit 1
fi
# Int64-extreme specs: a wrapping lcm gets a verdict (exit 0 or 1, never a
# crash), and a 100% task whose slice + overhead wraps is rejected under
# both policies with a certificate that replays.
status=0
dune exec bin/hrt_sim.exe -- admit query P:1000000:1000 P:9300001:1000 || status=$?
if [ "$status" -gt 1 ]; then
  echo "check.sh: wrapping-lcm query exited $status" >&2
  exit 1
fi
for policy in edf rm; do
  status=0
  dune exec bin/hrt_sim.exe -- admit query --policy "$policy" \
    P:9223372036854775:9223372036854775 >/tmp/hrt_full_task.txt || status=$?
  cat /tmp/hrt_full_task.txt
  if [ "$status" -ne 1 ] || ! grep -q 'certificate: replays ok' /tmp/hrt_full_task.txt; then
    echo "check.sh: 100% task not rejected with a replaying certificate ($policy)" >&2
    exit 1
  fi
done
dune exec bin/hrt_sim.exe -- admitbench --quick --out /tmp/BENCH_admit_quick.json

echo "== admission serving smoke =="
# Boot a real daemon + client round trips (cold/warm/batch) on a private
# socket; warm replies must be byte-identical to cold. The full-size
# regression gate is CI's serve job.
dune exec bin/hrt_sim.exe -- servebench --quick --out /tmp/BENCH_serve_quick.json

echo "check.sh: all gates passed"
