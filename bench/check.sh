#!/bin/sh
# CI gate: type-check, run the full test suite and the lint, verify that
# the observability layer costs nothing when disabled
# (bench/overhead_check.ml), then smoke the admission CLI, run --csv and
# the serving daemon. The performance gate is bench/gate.py over hrtbench
# runs (CI's hrtbench job).
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
# admit batch splits a set line on spaces and tabs, as the daemon does.
status=0
printf 'P:1000:300\tP:500:100\n' |
  dune exec bin/hrt_sim.exe -- admit batch - >/tmp/hrt_batch_tab.txt ||
  status=$?
cat /tmp/hrt_batch_tab.txt
if [ "$status" -ne 0 ] || ! grep -q '^set 1: admitted' /tmp/hrt_batch_tab.txt; then
  echo "check.sh: admit batch did not admit a tab-separated set" >&2
  exit 1
fi

echo "== run --csv runs each experiment once =="
# Writing the tables as CSV must not run the experiment a second time:
# the metrics of a run with --csv equal those of the same run without.
csv_dir=/tmp/hrt-csv-$$
dune exec bin/hrt_sim.exe -- run --metrics-out /tmp/hrt_metrics_plain.csv \
  fig14 >/dev/null
dune exec bin/hrt_sim.exe -- run --csv "$csv_dir" \
  --metrics-out /tmp/hrt_metrics_csv.csv fig14 >/dev/null
rm -rf "$csv_dir"
if ! cmp /tmp/hrt_metrics_plain.csv /tmp/hrt_metrics_csv.csv; then
  echo "check.sh: run --csv changed the run's metrics" >&2
  exit 1
fi

echo "== admission serving smoke =="
# An explicit --jobs 1 must boot a sequential daemon, not the default 4;
# the boot line names the job count. The client retries with backoff
# until the daemon has bound its socket, then drains it.
dune build bin/hrt_sim.exe
hrt_sim=_build/default/bin/hrt_sim.exe
sock=/tmp/hrt-check-$$.sock
"$hrt_sim" serve --jobs 1 --socket "$sock" >/tmp/hrt_serve_jobs1.txt 2>&1 &
daemon=$!
status=0
"$hrt_sim" serve --client --socket "$sock" 'query P:1000:300' drain || status=$?
[ "$status" -eq 0 ] || kill "$daemon"
wait "$daemon" || status=$?
cat /tmp/hrt_serve_jobs1.txt
if [ "$status" -ne 0 ] ||
  ! grep -q "^listening on $sock (jobs=1)\$" /tmp/hrt_serve_jobs1.txt; then
  echo "check.sh: serve --jobs 1 did not boot one job and drain" >&2
  exit 1
fi

echo "check.sh: all gates passed"
