#!/usr/bin/env bash
# Miri smoke: the DES kernel's unit tests run under Miri's undefined-
# behaviour and aliasing checks. The split-borrow kernel deliberately
# avoids new `unsafe` (the only unsafe block is the no-op waker), so the
# whole arena, slab and calendar (lane + heap) machinery must come out
# clean.
#
# Only a missing toolchain is forgivable: when no nightly Miri can be
# set up (e.g. offline dev boxes) the smoke skips with a notice — unless
# CCDB_MIRI_REQUIRED=1 (CI sets it), which turns that into a failure.
# Once Miri is installed, a failing run always fails the smoke; a real
# aliasing bug must never hide behind the skip path.
set -eu

root=$(cd "$(dirname "$0")/../.." && pwd)
cd "$root"

required=${CCDB_MIRI_REQUIRED:-0}

if ! cargo +nightly miri --version >/dev/null 2>&1; then
  if ! rustup component add miri --toolchain nightly >/dev/null 2>&1; then
    if [ "$required" = 1 ]; then
      echo "miri smoke FAILED: CCDB_MIRI_REQUIRED=1 but no nightly Miri toolchain could be installed" >&2
      exit 1
    fi
    echo "miri smoke SKIPPED: no nightly Miri toolchain available"
    exit 0
  fi
fi

# Unit tests only: the property tests multiply Miri's interpreter
# overhead past any useful smoke budget. Isolation stays on; the kernel
# touches no ambient host state.
if ! cargo +nightly miri test --locked -p ccdb-des --lib; then
  echo "miri smoke FAILED: Miri is installed and the run found real failures" >&2
  exit 1
fi

echo "miri smoke OK"
