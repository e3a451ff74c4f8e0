#!/usr/bin/env sh
# The repo's CI entry point: every lane a merge must survive, one command.
#
#   tests/run_ci.sh              # tier-1 + ASan + TSan + docs + coverage
#   tests/run_ci.sh tier1        # plain build + full ctest suite only
#   tests/run_ci.sh asan         # AddressSanitizer build + full ctest suite
#   tests/run_ci.sh tsan         # ThreadSanitizer lane (tests/run_tsan.sh)
#   tests/run_ci.sh docs         # docs-consistency check (tests/check_docs.sh)
#   tests/run_ci.sh coverage     # gcov line-coverage gate (tests/run_coverage.sh)
#
# Lanes:
#   tier1  cmake -B build-ci && ctest            (the acceptance gate)
#   asan   NETALYTICS_SANITIZE=address, i.e. the `cmake --preset asan`
#          configuration, full suite under ASan+UBSan-style checks
#   tsan   delegates to tests/run_tsan.sh (`cmake --preset tsan` equivalent:
#          the threaded mq suites and the parallel stepped-executor
#          differential suites under ThreadSanitizer)
#   docs   delegates to tests/check_docs.sh (README/DESIGN/docs references
#          must point at files and targets that exist)
#   coverage  delegates to tests/run_coverage.sh (gcov line coverage for
#          src/mq, src/stream, src/tsdb and the src/obs + src/fed
#          per-file floors must stay at or above the recorded baselines)
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
jobs=$(nproc 2>/dev/null || echo 4)

run_tier1() {
  echo "== CI lane: tier-1 =="
  build_dir="$repo_root/build-ci"
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$build_dir" -j "$jobs"
  ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"
}

run_asan() {
  echo "== CI lane: ASan =="
  build_dir="$repo_root/build-asan"
  cmake -B "$build_dir" -S "$repo_root" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DNETALYTICS_SANITIZE=address
  cmake --build "$build_dir" -j "$jobs"
  ASAN_OPTIONS="halt_on_error=1${ASAN_OPTIONS:+ $ASAN_OPTIONS}" \
    ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"
}

run_tsan() {
  echo "== CI lane: TSan =="
  "$repo_root/tests/run_tsan.sh"
}

run_docs() {
  echo "== CI lane: docs =="
  "$repo_root/tests/check_docs.sh"
}

run_coverage() {
  echo "== CI lane: coverage =="
  "$repo_root/tests/run_coverage.sh"
}

if [ "$#" -eq 0 ]; then
  run_docs
  run_tier1
  run_asan
  run_tsan
  run_coverage
  echo "== CI: all lanes green =="
  exit 0
fi

for lane in "$@"; do
  case "$lane" in
    tier1) run_tier1 ;;
    asan) run_asan ;;
    tsan) run_tsan ;;
    docs) run_docs ;;
    coverage) run_coverage ;;
    *)
      echo "unknown lane: $lane (expected tier1|asan|tsan|docs|coverage)" >&2
      exit 2
      ;;
  esac
done
