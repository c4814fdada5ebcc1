#!/usr/bin/env bash
# CI smoke test for skinner_serve: start the server on an ephemeral port,
# drive a scripted client session over TCP (DDL, query, prepared
# statement, stats), issue SHUTDOWN, and assert the server drains and
# exits cleanly with the expected responses.
#
#   scripts/server_smoke.sh [path/to/skinner_serve]
set -euo pipefail

SERVE="${1:-build/skinner_serve}"
if [ ! -x "$SERVE" ]; then
  echo "FAIL: $SERVE not found or not executable" >&2
  exit 1
fi
SERVE="$(cd "$(dirname "$SERVE")" && pwd)/$(basename "$SERVE")"

WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

cat > "$WORK/init.sql" <<'EOF'
CREATE TABLE t (a INT, b STRING);
INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'x');
EOF

"$SERVE" --port 0 --init "$WORK/init.sql" > "$WORK/serve.log" 2>&1 &
SERVER_PID=$!

# Wait for the LISTENING announcement (the server binds an ephemeral port).
PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/^LISTENING port=\([0-9]*\)$/\1/p' "$WORK/serve.log")"
  [ -n "$PORT" ] && break
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "FAIL: server exited before listening" >&2
    cat "$WORK/serve.log" >&2
    exit 1
  fi
  sleep 0.1
done
if [ -z "$PORT" ]; then
  echo "FAIL: server never announced its port" >&2
  cat "$WORK/serve.log" >&2
  exit 1
fi

"$SERVE" --client 127.0.0.1 "$PORT" > "$WORK/client.out" <<'EOF'
PING
X CREATE TABLE u (v INT)
X INSERT INTO u VALUES (10), (20)
Q SELECT b, COUNT(*) FROM t GROUP BY b ORDER BY b
P s SELECT a FROM t WHERE b = ? ORDER BY a
E s 'x'
X UPDATE t SET b = 'z' WHERE a = 2
Q SELECT COUNT(*) FROM t WHERE b = 'z'
X DELETE FROM u WHERE v = 10
Q SELECT COUNT(*) FROM u
CHECKPOINT
Q SELECT COUNT(*) FROM missing
STATS
SHUTDOWN
EOF

# The SHUTDOWN command must drain the server to a clean zero exit.
if ! wait "$SERVER_PID"; then
  echo "FAIL: server exited non-zero" >&2
  cat "$WORK/serve.log" >&2
  exit 1
fi
SERVER_PID=""

expect() {
  if ! grep -qF -- "$1" "$WORK/client.out"; then
    echo "FAIL: client transcript is missing: $1" >&2
    cat "$WORK/client.out" >&2
    exit 1
  fi
}
expect 'ROW x	2'
expect 'ROW y	1'
expect 'OK rows=2'
expect 'OK params=1'
expect 'ROW 1'
expect 'ROW 3'
expect 'ERR BIND'
expect 'OK checkpoints=1'
expect 'STAT sched_workers='
expect 'STAT cache_table_hits='
expect 'STAT wal_appends='
expect 'STAT wal_bytes='
expect 'STAT recovery_replayed_records='
expect 'STAT checkpoints=1'
expect 'OK draining'
grep -qF 'shutdown complete' "$WORK/serve.log" || {
  echo "FAIL: server did not report a clean shutdown" >&2
  cat "$WORK/serve.log" >&2
  exit 1
}

echo "PASS: server smoke ($(grep -c '^' "$WORK/client.out") response lines)"
