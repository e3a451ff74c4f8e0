#!/usr/bin/env sh
# ThreadSanitizer lane: build with NETALYTICS_SANITIZE=thread and run the
# suites that exercise real threads against the sharded broker (concurrent
# producers/consumers, producer retry under chaos) and both topology
# executors: the parallel stepped executor (stage barrier, worker-pool
# claims, the determinism differentials of
# docs/DETERMINISM.md) and the free-running executor (work-stealing
# claims, MPMC inboxes, help-on-full backpressure, the relaxed-mode
# multiset differentials), plus the consumer-group rebalance
# differentials (spout groups under churn), the tiered time-series
# store (concurrent ingest/capture vs queries), and the executor stage
# profiler (relaxed-atomic counter publication on the worker hot path).
#
#   tests/run_tsan.sh            # the threaded suites (CI lane)
#   tests/run_tsan.sh -R <re>    # any ctest selection, forwarded verbatim
#
# Companion to the ASan wiring: `cmake --preset asan` / `--preset tsan`
# select the sanitizer; this script is the one-command version of the
# latter for CI.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir="$repo_root/build-tsan"

cmake -B "$build_dir" -S "$repo_root" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DNETALYTICS_SANITIZE=thread
cmake --build "$build_dir" -j "$(nproc)" --target mq_test stream_test core_test tsdb_test obs_test fed_test

export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1${TSAN_OPTIONS:+ $TSAN_OPTIONS}"

if [ "$#" -gt 0 ]; then
  ctest --test-dir "$build_dir" --output-on-failure "$@"
else
  ctest --test-dir "$build_dir" --output-on-failure \
    -R 'ConcurrentBroker|MqChaos|ProducerBatch|Producer|ParallelStepped|ParallelExecutor|FreeRunning|GroupRebalance|TieredStore|ObsProfiler|ObsExportIntegration|FedWire|FedLink|Federation'
fi
