#!/usr/bin/env sh
# Runs a command that must be rejected cleanly: it has to exit non-zero
# without being killed by a signal (no assert abort, no segfault), and its
# stderr must contain the expected message.
#
# usage: expect_clean_failure.sh <expected-stderr-substring> <command> [args...]
set -u

expected=$1
shift
err=$("$@" 2>&1 >/dev/null)
status=$?
if [ "$status" -eq 0 ]; then
  echo "FAIL: '$*' exited 0" >&2
  exit 1
fi
if [ "$status" -gt 128 ]; then
  echo "FAIL: '$*' was killed by signal $((status - 128))" >&2
  exit 1
fi
case "$err" in
  *"$expected"*) ;;
  *)
    echo "FAIL: stderr of '$*' lacks '$expected':" >&2
    echo "$err" >&2
    exit 1
    ;;
esac
echo "ok: '$*' exited $status"
