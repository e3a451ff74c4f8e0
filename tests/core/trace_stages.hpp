// Shape check for a fully traced identity run, over the recorder's raw
// spans: fold collect() into the set of stages each trace reached, then
// require that some trace covers all six stages (request/response packets;
// so every stage appears) and that some trace stops at ingest (handshake
// packets the parser emits nothing for).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "common/trace.hpp"

namespace netalytics::core::testing {

inline ::testing::AssertionResult covers_pipeline(
    const std::vector<common::TraceSpan>& spans) {
  constexpr unsigned kAll = (1u << common::kTraceStageCount) - 1;
  constexpr unsigned kIngest = 1u << static_cast<unsigned>(common::TraceStage::ingest);
  std::map<std::uint64_t, unsigned> stages;  // trace id -> stage bit set
  for (const auto& s : spans) stages[s.trace] |= 1u << static_cast<unsigned>(s.stage);
  bool full = false;
  bool ingest_only = false;
  for (const auto& [trace, set] : stages) {
    full = full || set == kAll;
    ingest_only = ingest_only || set == kIngest;
  }
  if (!full) return ::testing::AssertionFailure() << "no trace covers all six stages";
  if (!ingest_only) return ::testing::AssertionFailure() << "no trace stops at ingest";
  return ::testing::AssertionSuccess();
}

}  // namespace netalytics::core::testing
