#!/usr/bin/env sh
# Coverage lane: build with GCC --coverage instrumentation, run the common /
# net / sdn / nf / mq / stream / core / tsdb / obs / fed suites, and report
# line coverage for
# src/mq, src/stream, src/tsdb and src/obs (the aggregation layer, the
# stream engine, the tiered time-series store, and the export layer),
# plus per-file floors for both topology executors and the task graph
# they share, the fetch path (mq cluster/consumer/group and the Kafka
# spout), the metrics registry and trace recorder the exporters read,
# every export-layer source, every federation source
# (docs/FEDERATION.md), the per-packet fabric path (switch, emulation,
# monitor), the top-k slot table (stream/window.cpp), and the record
# batch codec (nf/record.cpp). The lane
# FAILS if any module drops below its recorded baseline, so coverage can
# only ratchet up.
#
#   tests/run_coverage.sh        # build, run, report, gate
#
# Implementation notes: the container ships gcov 12 (matching g++ 12) but
# no gcovr/lcov, so the report is assembled from gcov's own text output —
# one "File ... / Lines executed:P% of N" pair per source file — summed
# per module. Headers count toward the module that owns them regardless of
# which object pulled them in.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir="$repo_root/build-cov"
jobs=$(nproc 2>/dev/null || echo 4)

# Baselines (percent, integer compare): measured at the introduction of
# this lane (mq 99%, stream 96%) minus a small stability margin. Raise
# them as coverage grows; never lower them to make a regression pass.
mq_baseline=95
stream_baseline=90
tsdb_baseline=90
# Per-file floor for the executor sources (stepped, free-running, the
# shared task graph): concurrency code ships with its differential suites
# or not at all.
executor_file_baseline=85
# Per-file floor for every export-layer source: exporters are pure
# string-building functions, so near-total coverage is the natural state.
obs_file_baseline=85
# Per-file floor for every federation source: protocol code ships with
# its chaos/differential suites or not at all.
fed_file_baseline=85
# Per-file floors for the one fetch path (cluster fan-out, the
# group-member consumer, the coordinator, the spout), measured at
# cluster 100%, consumer 100%, group 98%, kafka_spout 100%, minus a
# margin.
cluster_file_baseline=95
consumer_file_baseline=95
group_file_baseline=93
spout_file_baseline=95
# Per-file floors for the raw signals behind every export (the metrics
# registry/snapshot and the trace recorder/drop ledger), measured at
# metrics 94%, trace 96%, minus a margin.
metrics_file_baseline=90
trace_file_baseline=92
# Per-file floors for the decode-once packet path (fabric ingress, the
# switch data plane, the monitor's raw-frame and fabric entries), measured
# at switch 97%, emulation 95%, monitor 100%, minus a margin.
switch_file_baseline=93
emulation_file_baseline=90
monitor_file_baseline=96
# Per-file floor for the top-k slot table (RollingCounter, Rankings),
# measured at 98% with its differential test, minus a margin.
window_file_baseline=95
# Per-file floor for the one record-batch codec (RecordBatchView and the
# serialize_batch encoder), measured at 98% with its differential and
# mutation test, minus a margin.
record_file_baseline=94

cmake -B "$build_dir" -S "$repo_root" \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS=--coverage \
  -DCMAKE_EXE_LINKER_FLAGS=--coverage
cmake --build "$build_dir" -j "$jobs" --target common_test net_test sdn_test nf_test mq_test stream_test core_test tsdb_test obs_test fed_test

# Fresh counters: stale .gcda from a previous run would inflate the report.
find "$build_dir" -name '*.gcda' -delete

echo "== coverage: running suites =="
"$build_dir/tests/common_test" >/dev/null
"$build_dir/tests/net_test" >/dev/null
"$build_dir/tests/sdn_test" >/dev/null
"$build_dir/tests/nf_test" >/dev/null
"$build_dir/tests/mq_test" >/dev/null
"$build_dir/tests/stream_test" >/dev/null
"$build_dir/tests/core_test" >/dev/null
"$build_dir/tests/tsdb_test" >/dev/null
"$build_dir/tests/obs_test" >/dev/null
"$build_dir/tests/fed_test" >/dev/null

# Aggregate "Lines executed:P% of N" over every source under src/<module>/.
# gcov is run once per object's .gcda; a header seen from several objects
# contributes each time, which keeps the metric a pure sum (deterministic,
# no merge step needed).
module_coverage() {
  module=$1
  scratch=$(mktemp -d)
  (
    cd "$scratch"
    find "$build_dir/src" "$build_dir/tests" -name '*.gcda' \
      -exec gcov '{}' + 2>/dev/null || true
  ) >"$scratch/gcov.out"
  awk -v module="/src/$module/" '
    /^File / { file = $0; next }
    /^Lines executed:/ && index(file, module) {
      pct = $0; sub(/^Lines executed:/, "", pct); sub(/% of .*/, "", pct)
      n = $0; sub(/.*% of /, "", n)
      covered += pct * n / 100.0
      total += n
    }
    END {
      if (total == 0) { print "0"; exit }
      printf "%d\n", (covered * 100.0 / total)
    }
  ' "$scratch/gcov.out"
  rm -rf "$scratch"
}

# Same aggregation, restricted to one source file (header or .cpp).
file_coverage() {
  file=$1
  scratch=$(mktemp -d)
  (
    cd "$scratch"
    find "$build_dir/src" "$build_dir/tests" -name '*.gcda' \
      -exec gcov '{}' + 2>/dev/null || true
  ) >"$scratch/gcov.out"
  awk -v want="/$file" '
    /^File / { file = $0; next }
    /^Lines executed:/ && index(file, want) {
      pct = $0; sub(/^Lines executed:/, "", pct); sub(/% of .*/, "", pct)
      n = $0; sub(/.*% of /, "", n)
      covered += pct * n / 100.0
      total += n
    }
    END {
      if (total == 0) { print "0"; exit }
      printf "%d\n", (covered * 100.0 / total)
    }
  ' "$scratch/gcov.out"
  rm -rf "$scratch"
}

gate() {
  module=$1
  baseline=$2
  pct=$(module_coverage "$module")
  echo "coverage src/$module: ${pct}% (baseline ${baseline}%)"
  if [ "$pct" -lt "$baseline" ]; then
    echo "FAIL: src/$module line coverage ${pct}% fell below baseline ${baseline}%" >&2
    return 1
  fi
}

gate_file() {
  file=$1
  baseline=$2
  pct=$(file_coverage "$file")
  echo "coverage $file: ${pct}% (baseline ${baseline}%)"
  if [ "$pct" -lt "$baseline" ]; then
    echo "FAIL: $file line coverage ${pct}% fell below baseline ${baseline}%" >&2
    return 1
  fi
}

status=0
gate mq "$mq_baseline" || status=1
gate stream "$stream_baseline" || status=1
gate tsdb "$tsdb_baseline" || status=1
gate_file src/stream/free_running.cpp "$executor_file_baseline" || status=1
gate_file src/stream/executor.cpp "$executor_file_baseline" || status=1
gate_file src/stream/stepped.cpp "$executor_file_baseline" || status=1
gate_file src/stream/task_graph.cpp "$executor_file_baseline" || status=1
gate_file src/mq/cluster.cpp "$cluster_file_baseline" || status=1
gate_file src/mq/consumer.cpp "$consumer_file_baseline" || status=1
gate_file src/mq/group.cpp "$group_file_baseline" || status=1
gate_file src/stream/kafka_spout.cpp "$spout_file_baseline" || status=1
gate_file src/common/metrics.cpp "$metrics_file_baseline" || status=1
gate_file src/common/trace.cpp "$trace_file_baseline" || status=1
gate_file src/sdn/switch.cpp "$switch_file_baseline" || status=1
gate_file src/core/emulation.cpp "$emulation_file_baseline" || status=1
gate_file src/nf/monitor.cpp "$monitor_file_baseline" || status=1
gate_file src/stream/window.cpp "$window_file_baseline" || status=1
gate_file src/nf/record.cpp "$record_file_baseline" || status=1
for obs_src in src/obs/*.cpp; do
  gate_file "$obs_src" "$obs_file_baseline" || status=1
done
for fed_src in src/fed/*.cpp; do
  gate_file "$fed_src" "$fed_file_baseline" || status=1
done
[ "$status" -eq 0 ] && echo "== coverage: gate green =="
exit "$status"
