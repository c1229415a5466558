#!/bin/sh
# CI gate: type-check, run the full test suite and the lint, verify that
# the observability layer costs nothing when disabled
# (bench/overhead_check.ml), then smoke the admission CLI, run --csv,
# run's argument checks and the serving daemon, send the daemon one set
# in four spellings, flood it with idle connections and with clients
# that close before their reply. The
# performance gate is bench/gate.py over hrtbench runs (CI's hrtbench
# job).
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
# An unreadable FILE is a usage error (exit 2, like a bad spec line),
# not an uncaught Sys_error (exit 125).
status=0
dune exec bin/hrt_sim.exe -- admit batch /nonexistent/hrt-batch-file \
  2>/tmp/hrt_batch_missing.txt || status=$?
cat /tmp/hrt_batch_missing.txt
if [ "$status" -ne 2 ] ||
  ! grep -q '^admit batch: .*No such file' /tmp/hrt_batch_missing.txt; then
  echo "check.sh: admit batch on a missing file exited $status" >&2
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

echo "== run resolves its arguments before running =="
# run --csv makes DIR and its missing parents before the first
# experiment. An unknown NAME (exit 1) or a DIR that cannot be made
# (exit 2) is reported before anything runs, so stdout stays empty;
# both used to surface only after the experiments had run.
args_dir=/tmp/hrt-run-args-$$
rm -rf "$args_dir"
status=0
dune exec bin/hrt_sim.exe -- run --csv "$args_dir/a/b" fig3 >/dev/null ||
  status=$?
if [ "$status" -ne 0 ] || [ ! -f "$args_dir/a/b/fig3-0.csv" ]; then
  echo "check.sh: run --csv DIR/a/b exited $status or wrote no fig3-0.csv" >&2
  exit 1
fi
rm -rf "$args_dir"
status=0
dune exec bin/hrt_sim.exe -- run fig3 nosuch >/tmp/hrt_run_unknown.txt ||
  status=$?
if [ "$status" -ne 1 ] || [ -s /tmp/hrt_run_unknown.txt ]; then
  echo "check.sh: run with an unknown NAME exited $status or ran fig3" >&2
  exit 1
fi
status=0
dune exec bin/hrt_sim.exe -- run --csv /dev/null/x fig3 \
  >/tmp/hrt_run_bad_csv.txt || status=$?
if [ "$status" -ne 2 ] || [ -s /tmp/hrt_run_bad_csv.txt ]; then
  echo "check.sh: run --csv with an unmakeable DIR exited $status or ran fig3" >&2
  exit 1
fi

echo "== admission serving smoke =="
# The daemon boots, names its socket, answers a query and drains. The
# client retries with backoff until the daemon has bound its socket.
dune build bin/hrt_sim.exe
hrt_sim=_build/default/bin/hrt_sim.exe
sock=/tmp/hrt-check-$$.sock
"$hrt_sim" serve --socket "$sock" >/tmp/hrt_serve_boot.txt 2>&1 &
daemon=$!
status=0
"$hrt_sim" serve --client --socket "$sock" 'query P:1000:300' drain || status=$?
[ "$status" -eq 0 ] || kill "$daemon"
wait "$daemon" || status=$?
cat /tmp/hrt_serve_boot.txt
if [ "$status" -ne 0 ] ||
  ! grep -q "^listening on $sock\$" /tmp/hrt_serve_boot.txt; then
  echo "check.sh: serve did not boot, answer a query and drain" >&2
  exit 1
fi

echo "== warm queries answered from their keys =="
# A query, its permutation, a respelling of it and the same set with an
# @ms deadline, one at a time on one connection: one cache key, so the
# four replies are byte-identical and stats count one miss and three
# hits.
sock=/tmp/hrt-key-$$.sock
"$hrt_sim" serve --socket "$sock" >/tmp/hrt_key_daemon.txt 2>&1 &
daemon=$!
status=0
python3 - "$sock" 'query P:1000:300 P:500:100' 'query P:500:100 P:1000:300' \
  'query p:0x3E8:300 P:0500:100' 'query @1000 P:1000:300 P:500:100' \
  stats drain >/tmp/hrt_key_replies.txt <<'PY' || status=$?
import socket, sys, time
path, payloads = sys.argv[1], sys.argv[2:]
give_up = time.time() + 10
while True:
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        s.connect(path)
        break
    except OSError:
        s.close()
        if time.time() > give_up:
            sys.exit("the daemon never bound " + path)
        time.sleep(0.01)
buf = b""
def reply():
    global buf
    while True:
        nl = buf.find(b"\n")
        if nl >= 0:
            n = int(buf[:nl].split(b" ")[1])
            if len(buf) > nl + n:
                payload, buf = buf[nl + 1:nl + 1 + n], buf[nl + 1 + n:]
                return payload.decode()
        chunk = s.recv(65536)
        if not chunk:
            sys.exit("the daemon closed the connection")
        buf += chunk
for p in payloads:
    b = p.encode()
    s.sendall(b"hrt1 %d\n%s" % (len(b), b))
    print(reply())
PY
[ "$status" -eq 0 ] || kill "$daemon" 2>/dev/null || true
wait "$daemon" || status=$?
cat /tmp/hrt_key_replies.txt
if [ "$status" -ne 0 ] ||
  ! head -n 1 /tmp/hrt_key_replies.txt | grep -q '^admitted ' ||
  [ "$(head -n 4 /tmp/hrt_key_replies.txt | sort -u | wc -l)" -ne 1 ] ||
  ! sed -n 5p /tmp/hrt_key_replies.txt | grep -q ' hits=3\.0 misses=1\.0 '
then
  echo "check.sh: four spellings of one set were not one miss and three identical hits" >&2
  exit 1
fi

echo "== connection floods =="
# flood LIMIT CONNS: boot the daemon alone under an fd limit of LIMIT,
# hold CONNS idle connections from a client that has fds to spare, close
# them; the daemon must then still admit a query and drain with exit 0.
flood() {
  sock=/tmp/hrt-flood-$$.sock
  (ulimit -n "$1" && exec "$hrt_sim" serve --socket "$sock") \
    >/tmp/hrt_flood_daemon.txt 2>&1 &
  daemon=$!
  (ulimit -n 4096 && python3 - "$sock" "$2" <<'PY'
import socket, sys, time
path, n = sys.argv[1], int(sys.argv[2])
held = []
give_up = time.time() + 10
while len(held) < n and time.time() < give_up:
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.setblocking(False)
    try:
        s.connect(path)
        held.append(s)
    except BlockingIOError:
        s.close()
        time.sleep(0.001)  # the listen backlog is full
    except OSError:
        s.close()
        if held:
            break  # the daemon is gone
        time.sleep(0.01)  # the daemon has not bound yet
time.sleep(0.5)  # let the daemon accept what it will
for s in held:
    s.close()
PY
  )
  status=0
  "$hrt_sim" serve --client --socket "$sock" 'query P:1000:300' drain \
    >/tmp/hrt_flood_reply.txt || status=$?
  [ "$status" -eq 0 ] || kill "$daemon" 2>/dev/null || true
  wait "$daemon" || status=$?
  cat /tmp/hrt_flood_reply.txt /tmp/hrt_flood_daemon.txt
  if [ "$status" -ne 0 ] || ! grep -q '^admitted ' /tmp/hrt_flood_reply.txt
  then
    echo "check.sh: daemon did not survive $2 connections at ulimit -n $1" >&2
    exit 1
  fi
}
# Out of fds, accept fails with EMFILE: the daemon used to exit on it.
flood 64 80
# select cannot watch an fd >= 1024 (EINVAL), which also ended the
# daemon; connections past the 1,000 cap are now refused instead.
flood 4096 1100

echo "== clients that close before the reply =="
# 200 clients each send a query and close without reading. Each reply's
# write then hits a closed socket, which used to end the daemon with
# SIGPIPE; the daemon must still admit a query and drain with exit 0.
sock=/tmp/hrt-sigpipe-$$.sock
"$hrt_sim" serve --socket "$sock" >/tmp/hrt_sigpipe_daemon.txt 2>&1 &
daemon=$!
python3 - "$sock" 200 <<'PY'
import socket, sys, time
path, n = sys.argv[1], int(sys.argv[2])
payload = b"query P:1000:300"
frame = b"hrt1 %d\n%s" % (len(payload), payload)
sent = 0
give_up = time.time() + 10
while sent < n and time.time() < give_up:
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        s.connect(path)
        s.sendall(frame)
        sent += 1
    except OSError:
        if sent:
            break  # the daemon is gone
        time.sleep(0.01)  # the daemon has not bound yet
    finally:
        s.close()
PY
status=0
"$hrt_sim" serve --client --socket "$sock" 'query P:1000:300' drain \
  >/tmp/hrt_sigpipe_reply.txt || status=$?
[ "$status" -eq 0 ] || kill "$daemon" 2>/dev/null || true
wait "$daemon" || status=$?
cat /tmp/hrt_sigpipe_reply.txt /tmp/hrt_sigpipe_daemon.txt
if [ "$status" -ne 0 ] || ! grep -q '^admitted ' /tmp/hrt_sigpipe_reply.txt
then
  echo "check.sh: daemon did not survive clients closing before the reply" >&2
  exit 1
fi

echo "check.sh: all gates passed"
