#!/usr/bin/env bash
# Multi-process recovery smoke test (ctest label: multiprocess).
#
# Starts one PS-server process and two worker processes over a Unix-domain
# socket or TCP loopback, then SIGKILLs one worker mid-run — real process death, not a
# simulated flag.  The server must detect the dead socket, evict the worker,
# restore the latest asynchronous snapshot, and still complete the run with
# the survivor.  Asserts on the server's exit code, the survivor's exit
# code, the eviction/restore lines in the server output, and the frame count
# of its final metrics line (one exchange per update).
#
# Usage: multiprocess_smoke.sh <path-to-sync_switch_cli> [unix|tcp]
# (default unix; tcp listens on 127.0.0.1 port 0 and reads the bound port
# back from the server log).
set -u

USAGE="usage: multiprocess_smoke.sh <path-to-sync_switch_cli> [unix|tcp]"
CLI="${1:?$USAGE}"
KIND="${2:-unix}"
DIR="$(mktemp -d)"
case "$KIND" in
  unix) LISTEN="unix:$DIR/ps.sock" ;;
  tcp) LISTEN="tcp:127.0.0.1:0" ;;
  *) echo "$USAGE"; rm -rf "$DIR"; exit 2 ;;
esac
trap 'kill -9 "$SERVER" "$W0" "$W1" 2>/dev/null; rm -rf "$DIR"' EXIT

fail() {
  echo "FAIL: $1"
  echo "--- server log ---"; cat "$DIR/server.log" 2>/dev/null
  echo "--- worker 0 log ---"; cat "$DIR/worker0.log" 2>/dev/null
  echo "--- worker 1 log ---"; cat "$DIR/worker1.log" 2>/dev/null
  exit 1
}

# The step quota is sized so the run is still going when the kill lands
# (~50k updates/s over a local socket on a 4-vCPU VM => ~2s of run); the
# survivor then finishes the remaining steps alone.
"$CLI" serve --listen "$LISTEN" --workers 2 --steps 60000 --batch 16 \
  --snapshot-interval 32 --verbose --metrics-out "$DIR/metrics.txt" \
  >"$DIR/server.log" 2>&1 &
SERVER=$!
W0=""
W1=""

# The server logs its concrete endpoint once it is listening.
ENDPOINT=""
for _ in $(seq 1 100); do
  ENDPOINT="$(sed -n 's/.*ps_server: listening on \([^ ]*\) .*/\1/p' "$DIR/server.log" | head -n 1)"
  [ -n "$ENDPOINT" ] && break
  kill -0 "$SERVER" 2>/dev/null || fail "server exited before listening"
  sleep 0.1
done
[ -n "$ENDPOINT" ] || fail "server never reported its endpoint"

"$CLI" worker --connect "$ENDPOINT" --verbose >"$DIR/worker0.log" 2>&1 &
W0=$!
"$CLI" worker --connect "$ENDPOINT" --verbose >"$DIR/worker1.log" 2>&1 &
W1=$!

# Only kill once both workers hold a slot and have had time to push a few
# updates, so the eviction happens mid-run rather than mid-handshake.
for _ in $(seq 1 100); do
  grep -q "worker 1 joined" "$DIR/server.log" && break
  sleep 0.1
done
grep -q "worker 1 joined" "$DIR/server.log" || fail "second worker never joined"
sleep 0.3

kill -9 "$W1" 2>/dev/null || fail "worker to kill had already exited (run too short)"
wait "$W1" 2>/dev/null

wait "$W0"
W0_RC=$?
wait "$SERVER"
SERVER_RC=$?
W1=""
W0=""
SERVER=""
trap 'rm -rf "$DIR"' EXIT

[ "$SERVER_RC" -eq 0 ] || fail "server exited with $SERVER_RC"
[ "$W0_RC" -eq 0 ] || fail "surviving worker exited with $W0_RC"
grep -q "evicted worker" "$DIR/server.log" || fail "server never evicted the killed worker"
grep -q "1 evicted" "$DIR/server.log" || fail "summary does not report the eviction"
grep -Eq "[1-9][0-9]* snapshot restores" "$DIR/server.log" \
  || fail "summary does not report a snapshot restore"
# The server ran with --metrics-out, so its exposition dump must exist and
# show real wire traffic (nonzero received-frame counter).
[ -f "$DIR/metrics.txt" ] || fail "server did not write metrics.txt"
grep -Eq "^ss_net_frames_received_total [1-9][0-9]*$" "$DIR/metrics.txt" \
  || fail "metrics dump has no nonzero ss_net_frames_received_total"
grep -q "metrics final" "$DIR/server.log" \
  || fail "server log has no dump-on-exit metrics line"
# One exchange per update: the server receives one frame per push (the
# push-and-pull request) plus a handful per worker (Hello, the first Pull,
# DrainArrive, Bye).  Two exchanges per update would read twice the updates.
FINAL="$(grep "metrics final" "$DIR/server.log" | head -n 1)"
UPDATES="$(sed -n 's/.* updates=\([0-9]*\).*/\1/p' <<<"$FINAL")"
FRAMES_RX="$(sed -n 's/.* frames_rx=\([0-9]*\).*/\1/p' <<<"$FINAL")"
[ -n "$UPDATES" ] && [ -n "$FRAMES_RX" ] || fail "metrics final line has no updates or frames_rx"
[ "$FRAMES_RX" -le $((UPDATES + 16)) ] \
  || fail "server received $FRAMES_RX frames for $UPDATES updates: over one exchange each"

echo "PASS ($KIND): killed worker evicted, snapshot restored, metrics dumped, run completed"
exit 0
