#!/usr/bin/env bash
# Regenerates the observability golden fixtures (tests/golden/*.json) —
# the drift-free obs_run.{trace,report}.json pair, the drifted-run
# obs_drift.report.json and the faulted-run obs_faults.{trace,report}.json
# — by running the test_obs_golden binary with
# PALADIN_REGEN_GOLDEN=1, which makes the byte-exact tests rewrite their
# fixtures in place instead of comparing.  Run after an intentional
# exporter/trace change, then review and commit the fixture diff (a
# drift-layer change must leave the drift-free pair untouched):
#
#   ./tools/regen_golden_obs.sh [build-dir]
#
# The build dir defaults to ./build and must already contain a built
# test_obs_golden (cmake --build build -j).
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"
bin="$build/tests/test_obs_golden"

if [[ ! -x "$bin" ]]; then
  echo "error: $bin not found or not executable." >&2
  echo "Build it first:  cmake -B '$build' -S '$repo' && cmake --build '$build' -j" >&2
  exit 1
fi

PALADIN_REGEN_GOLDEN=1 "$bin" --gtest_filter='ObsGolden.*MatchesFixtureByteExact'
echo "Regenerated fixtures in $repo/tests/golden:"
git -C "$repo" status --short tests/golden || true
