#!/usr/bin/env bash
# The CLI's flag rules, end to end (ctest label: cli).
#
# Every entry point reads its flags through one reader, so each must refuse
# a malformed value, a missing value, a boolean given '=value' and an unknown
# name with a non-zero exit and an "error: <flag>" line, before it starts
# any work (no run, no socket, no file written).
#
# Usage: cli_flag_rules.sh <path-to-sync_switch_cli>
set -u

CLI="${1:?usage: cli_flag_rules.sh <path-to-sync_switch_cli>}"
failures=0

# expect_rejected FLAG ARGS...: the CLI run with ARGS must exit non-zero and
# print "error: FLAG".
expect_rejected() {
  local flag="$1"
  shift
  local out rc=0
  out="$("$CLI" "$@" 2>&1)" || rc=$?
  if [ "$rc" -ne 0 ] && grep -qF -- "error: $flag" <<<"$out"; then
    echo "ok: $* (exit $rc)"
  else
    echo "FAIL: '$*' exited $rc without 'error: $flag':"
    head -n 3 <<<"$out"
    failures=$((failures + 1))
  fi
}

# The default command.
expect_rejected --steps --steps=10x
expect_rejected --steps --steps 10x
expect_rejected --steps --steps
expect_rejected --verbose --verbose=1
expect_rejected --arch --arch=vgg
expect_rejected --policy --policy=raft
expect_rejected --bogus --bogus
# scenario gen|replay|fuzz
expect_rejected --seed scenario gen --seed=10x
expect_rejected --json scenario gen --seed=7 --json=false
expect_rejected --threaded scenario replay --seed=7 --threaded=0
expect_rejected --seeds scenario fuzz --seeds=-1
# sweep
expect_rejected --steps sweep --steps=10x
expect_rejected --policies sweep --policies=bsp,raft
# train
expect_rejected --steps train --steps=10x
expect_rejected --protocol train --protocol=raft
expect_rejected --switch-at train --switch-at=0
# serve and worker
expect_rejected --steps serve --steps=10x
expect_rejected --compress serve --compress=zstd
expect_rejected --crash-after worker --crash-after=10x
expect_rejected --log-level worker --log-level=loud

[ "$failures" -eq 0 ] || { echo "$failures case(s) failed"; exit 1; }
