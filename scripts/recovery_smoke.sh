#!/usr/bin/env bash
# CI kill-in-the-middle recovery smoke test: run skinner_serve on a durable
# database (--db --fsync), apply acknowledged DML over the wire, SIGKILL
# the server (no clean shutdown, no checkpoint), restart it on the same
# directory and assert every acknowledged statement survived replay. A
# second round checkpoints, kills again, and verifies the checkpoint +
# post-checkpoint WAL both recover. A last, concurrent round streams reads
# on one connection and acknowledged UPDATE/DELETEs on another, kills the
# server mid-stream, and requires every acknowledged write after restart
# (a write is logged and fsynced before it is published and acknowledged)
# and every read to have seen a consistent version.
#
#   scripts/recovery_smoke.sh [path/to/skinner_serve]
set -euo pipefail

SERVE="${1:-build/skinner_serve}"
if [ ! -x "$SERVE" ]; then
  echo "FAIL: $SERVE not found or not executable" >&2
  exit 1
fi
SERVE="$(cd "$(dirname "$SERVE")" && pwd)/$(basename "$SERVE")"

WORK="$(mktemp -d)"
DB="$WORK/db"
SERVER_PID=""
cleanup() {
  if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill -9 "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

start_server() {  # $1 = log file
  "$SERVE" --port 0 --db "$DB" --fsync > "$1" 2>&1 &
  SERVER_PID=$!
  PORT=""
  for _ in $(seq 1 100); do
    PORT="$(sed -n 's/^LISTENING port=\([0-9]*\)$/\1/p' "$1")"
    [ -n "$PORT" ] && break
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
      echo "FAIL: server exited before listening" >&2
      cat "$1" >&2
      exit 1
    fi
    sleep 0.1
  done
  if [ -z "$PORT" ]; then
    echo "FAIL: server never announced its port" >&2
    cat "$1" >&2
    exit 1
  fi
}

expect() {  # $1 = file, $2 = literal line fragment
  if ! grep -qF -- "$2" "$1"; then
    echo "FAIL: transcript $1 is missing: $2" >&2
    cat "$1" >&2
    exit 1
  fi
}

# ---- Round 1: acked DML, then SIGKILL (torn shutdown, no checkpoint) ----
start_server "$WORK/serve1.log"
"$SERVE" --client 127.0.0.1 "$PORT" > "$WORK/client1.out" <<'EOF'
X CREATE TABLE accounts (id INT, owner STRING, balance DOUBLE)
X INSERT INTO accounts VALUES (1, 'ada', 10.0), (2, 'bob', 20.0), (3, 'cal', 30.0), (4, 'dee', 40.0)
X UPDATE accounts SET balance = balance + 5.0 WHERE id <= 2
X DELETE FROM accounts WHERE id = 4
Q SELECT COUNT(*) FROM accounts
Q SELECT COUNT(*) FROM accounts WHERE balance = 15.0
QUIT
EOF
expect "$WORK/client1.out" 'ROW 3'
expect "$WORK/client1.out" 'ROW 1'
# Every statement above was acknowledged; a torn death must lose none.
disown "$SERVER_PID" 2>/dev/null || true  # silence bash's "Killed" report
kill -9 "$SERVER_PID"
while kill -0 "$SERVER_PID" 2>/dev/null; do sleep 0.05; done
SERVER_PID=""

# ---- Round 2: recover, verify, checkpoint, more DML, SIGKILL again ----
start_server "$WORK/serve2.log"
expect "$WORK/serve2.log" 'RECOVERED records='
"$SERVE" --client 127.0.0.1 "$PORT" > "$WORK/client2.out" <<'EOF'
Q SELECT COUNT(*) FROM accounts
Q SELECT COUNT(*) FROM accounts WHERE balance = 15.0
Q SELECT COUNT(*) FROM accounts WHERE id = 4
CHECKPOINT
X UPDATE accounts SET owner = 'eve' WHERE id = 3
STATS
QUIT
EOF
expect "$WORK/client2.out" 'ROW 3'
expect "$WORK/client2.out" 'ROW 1'
expect "$WORK/client2.out" 'ROW 0'
expect "$WORK/client2.out" 'OK checkpoints=1'
expect "$WORK/client2.out" 'STAT wal_appends='
disown "$SERVER_PID" 2>/dev/null || true  # silence bash's "Killed" report
kill -9 "$SERVER_PID"
while kill -0 "$SERVER_PID" 2>/dev/null; do sleep 0.05; done
SERVER_PID=""

# ---- Round 3: recover checkpoint + post-checkpoint WAL, clean shutdown ----
start_server "$WORK/serve3.log"
expect "$WORK/serve3.log" 'RECOVERED records='
"$SERVE" --client 127.0.0.1 "$PORT" > "$WORK/client3.out" <<'EOF'
Q SELECT COUNT(*) FROM accounts
Q SELECT COUNT(*) FROM accounts WHERE owner = 'eve'
STATS
SHUTDOWN
EOF
expect "$WORK/client3.out" 'ROW 3'
expect "$WORK/client3.out" 'ROW 1'
expect "$WORK/client3.out" 'STAT recovery_replayed_records='
expect "$WORK/client3.out" 'OK draining'
if ! wait "$SERVER_PID"; then
  echo "FAIL: server exited non-zero after SHUTDOWN" >&2
  cat "$WORK/serve3.log" >&2
  exit 1
fi
SERVER_PID=""
expect "$WORK/serve3.log" 'shutdown complete'

# ---- Round 4: concurrent reads and writes, SIGKILL mid-stream ----
# ledger: ids 0..49 take increasing UPDATE values, ids 1000.. are deleted
# in order. The writer's k-th OK acknowledges the k-th line of its stream.
start_server "$WORK/serve4.log"
{
  echo "X CREATE TABLE ledger (id INT, v INT)"
  rows=""
  for i in $(seq 0 49) $(seq 1000 3999); do rows="$rows${rows:+, }($i, 0)"; done
  echo "X INSERT INTO ledger VALUES $rows"
  echo "QUIT"
} | "$SERVE" --client 127.0.0.1 "$PORT" > "$WORK/client4_setup.out"
expect "$WORK/client4_setup.out" 'OK'
awk 'BEGIN {
  d = 1000
  for (i = 1; i <= 12000; ++i) {
    if (i % 4 == 0) print "X DELETE FROM ledger WHERE id = " d++
    else print "X UPDATE ledger SET v = " i " WHERE id = " (i % 50)
  }
}' > "$WORK/writes.txt"
awk 'BEGIN { for (i = 0; i < 100000; ++i) print "Q SELECT COUNT(*) FROM ledger" }' \
  > "$WORK/reads.txt"
"$SERVE" --client 127.0.0.1 "$PORT" < "$WORK/reads.txt" \
  > "$WORK/client4_reads.out" 2>/dev/null &
READER_PID=$!
"$SERVE" --client 127.0.0.1 "$PORT" < "$WORK/writes.txt" \
  > "$WORK/client4_writes.out" 2>/dev/null &
WRITER_PID=$!
# Kill once at least 100 deletes are visible, well before the stream ends.
for _ in $(seq 1 200); do
  left="$(printf 'Q SELECT COUNT(*) FROM ledger WHERE id >= 1000\nQUIT\n' \
    | "$SERVE" --client 127.0.0.1 "$PORT" 2>/dev/null \
    | sed -n 's/^ROW \([0-9]*\)$/\1/p')"
  [ -n "$left" ] && [ "$left" -le 2900 ] && break
  sleep 0.05
done
disown "$SERVER_PID" 2>/dev/null || true  # silence bash's "Killed" report
kill -9 "$SERVER_PID"
while kill -0 "$SERVER_PID" 2>/dev/null; do sleep 0.05; done
SERVER_PID=""
wait "$READER_PID" "$WRITER_PID" 2>/dev/null || true  # both see a disconnect

acked="$(grep -c '^OK' "$WORK/client4_writes.out" || true)"
if grep -q '^ERR' "$WORK/client4_writes.out" "$WORK/client4_reads.out"; then
  echo "FAIL: a streamed request was refused" >&2
  grep '^ERR' "$WORK/client4_writes.out" "$WORK/client4_reads.out" >&2
  exit 1
fi
if [ "$acked" -lt 100 ] || [ "$acked" -ge 12000 ]; then
  echo "FAIL: kill was not mid-stream ($acked of 12000 writes acknowledged)" >&2
  exit 1
fi
# Every read saw one published version: the row count never grows.
if ! awk '/^ROW / { if (seen && $2 > last) bad = 1; last = $2; seen = 1 }
          END { exit bad }' "$WORK/client4_reads.out"; then
  echo "FAIL: a read saw the row count grow under deletes" >&2
  exit 1
fi

# ---- Round 5: every acknowledged write survived the kill ----
start_server "$WORK/serve5.log"
expect "$WORK/serve5.log" 'RECOVERED records='
head -n "$acked" "$WORK/writes.txt" | awk '
  / DELETE / { last_del = $NF }
  / UPDATE / { v[$NF] = $7 }
  END {
    if (last_del != "")
      print "Q SELECT COUNT(*) FROM ledger WHERE id >= 1000 AND id <= " last_del
    for (id in v)
      print "Q SELECT COUNT(*) FROM ledger WHERE id = " id " AND v >= " v[id]
  }' > "$WORK/checks.txt"
checks="$(wc -l < "$WORK/checks.txt")"
{ cat "$WORK/checks.txt"; echo "SHUTDOWN"; } \
  | "$SERVE" --client 127.0.0.1 "$PORT" > "$WORK/client5.out"
# The delete check must read 0, each update check 1.
if ! awk -v n="$checks" '/^ROW / { ++rows; if (rows == 1 ? $2 != 0 : $2 != 1) bad = 1 }
    END { exit (bad || rows != n) }' "$WORK/client5.out"; then
  echo "FAIL: an acknowledged write was lost ($acked acknowledged)" >&2
  paste "$WORK/checks.txt" <(grep '^ROW' "$WORK/client5.out") >&2
  exit 1
fi
if ! wait "$SERVER_PID"; then
  echo "FAIL: server exited non-zero after SHUTDOWN" >&2
  cat "$WORK/serve5.log" >&2
  exit 1
fi
SERVER_PID=""

echo "PASS: recovery smoke (3 SIGKILLs survived, checkpoint + WAL replayed," \
  "$acked concurrent writes acknowledged and kept)"
