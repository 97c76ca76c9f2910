#!/usr/bin/env bash
# ThreadSanitizer smoke: the server end-to-end suite — the reactor
# thread beside the in-process load threads, the threaded server's
# per-connection readers and writers, and the shared engine — runs under
# TSan so any data race on the socket/engine/trace hand-off paths
# surfaces as a hard failure instead of a once-a-year flake.
#
# TSan needs a nightly toolchain with rust-src (`-Zbuild-std` rebuilds
# std instrumented). Only a missing toolchain is forgivable: without it
# the smoke skips with a notice — unless CCDB_TSAN_REQUIRED=1 (CI sets
# it), which turns that into a failure. Once the toolchain is present, a
# failing run always fails the smoke; a real race must never hide behind
# the skip path.
set -eu

root=$(cd "$(dirname "$0")/../.." && pwd)
cd "$root"

required=${CCDB_TSAN_REQUIRED:-0}
target=${CCDB_TSAN_TARGET:-x86_64-unknown-linux-gnu}

skip() {
  if [ "$required" = 1 ]; then
    echo "tsan smoke FAILED: CCDB_TSAN_REQUIRED=1 but $1" >&2
    exit 1
  fi
  echo "tsan smoke SKIPPED: $1"
  exit 0
}

cargo +nightly --version >/dev/null 2>&1 \
  || rustup toolchain install nightly >/dev/null 2>&1 \
  || skip "no nightly toolchain could be installed"
rustup component list --toolchain nightly 2>/dev/null | grep -q 'rust-src (installed)' \
  || rustup component add rust-src --toolchain nightly >/dev/null 2>&1 \
  || skip "nightly has no rust-src component (needed for -Zbuild-std)"

# The e2e suite exercises every cross-thread edge the servers have; the
# lifecycle tests add the shutdown/port-file races and fault injection.
# One thread of test parallelism keeps TSan's shadow memory within smoke
# budget.
export RUSTFLAGS="-Zsanitizer=thread ${RUSTFLAGS:-}"
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
if ! cargo +nightly test --locked -Zbuild-std --target "$target" \
    --test server_e2e --test server_lifecycle -- --test-threads=1; then
  echo "tsan smoke FAILED: ThreadSanitizer found real races (or the instrumented build broke)" >&2
  exit 1
fi

echo "tsan smoke OK"
