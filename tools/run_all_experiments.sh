#!/usr/bin/env bash
# Regenerates every reproduction artefact: builds, runs the test suite, and
# captures all bench outputs under bench_results/.  Pass --full to run the
# paper-scale sizes (several minutes); default is the 16x-scaled suite.
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE_FLAG="${1:-}"
SUFFIX="scaled"
if [[ "$SCALE_FLAG" == "--full" ]]; then
  SUFFIX="full"
fi

# The preset names no generator, so it reuses whichever one configured
# build/ before (a plain `cmake -B build -S .` picks Unix Makefiles).
cmake --preset release
cmake --build --preset release -j "$(nproc)"

echo "== tests =="
ctest --test-dir build --output-on-failure

mkdir -p bench_results
for bench in table2_seqsort table3_parallel msgsize_sweep io_bound \
             pivot_ablation duplicates scalability widerecords staging \
             pdm_params backends; do
  echo "== bench_${bench} =="
  # shellcheck disable=SC2086
  ./build/bench/bench_${bench} ${SCALE_FLAG} \
      | tee "bench_results/${bench}_${SUFFIX}.txt"
done

echo "== bench_micro (wall-time kernels) =="
./build/bench/bench_micro --benchmark_min_time=0.05 \
    | tee "bench_results/micro_${SUFFIX}.txt"

echo
echo "All outputs captured under bench_results/*_${SUFFIX}.txt"
echo "Compare against the tables in EXPERIMENTS.md"
