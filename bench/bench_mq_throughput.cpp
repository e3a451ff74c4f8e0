// Aggregation-layer throughput sweep: (global lock vs sharded broker) x
// (per-message vs batched produce) x (copy vs zero-copy poll), with real
// producer threads hammering multiple topics.
//
// "global+permsg" emulates the seed broker — one mutex serializing every
// produce, one broker round-trip per message — by funneling all producers
// through an external mutex. "sharded" lets the per-partition locks work.
// The acceptance bar for this configuration (see ISSUE/ROADMAP): batched
// produce on the sharded broker must beat the global per-message baseline
// by >= 2x at 4 producer threads, and the poll path must hand out payloads
// without deep-copying (checked here via Payload::use_count).
//
// Results land in BENCH_mq.json in the working directory.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "mq/broker.hpp"

using namespace netalytics;

namespace {

constexpr std::size_t kThreads = 4;
constexpr std::size_t kTopics = 4;
constexpr std::size_t kPerThread = 60'000;
constexpr std::size_t kPayloadBytes = 256;
constexpr std::size_t kBatchRecords = 32;

const char* const kTopicNames[kTopics] = {"t0", "t1", "t2", "t3"};

mq::BrokerConfig bench_config() {
  mq::BrokerConfig cfg;
  cfg.partitions_per_topic = 4;
  cfg.partition_capacity = 1 << 16;
  cfg.persist_bytes_per_sec = 0;  // RAM disk (§6.1)
  return cfg;
}

struct Cell {
  double msgs_per_sec = 0;
  double bytes_per_sec = 0;
};

mq::Message make_msg(const char* topic, std::uint64_t key) {
  mq::Message m;
  m.topic = topic;
  m.key = key;
  m.payload = std::vector<std::byte>(kPayloadBytes, std::byte{0x5a});
  return m;
}

/// 4 threads produce kPerThread messages each, round-robin over kTopics
/// per batch-sized run. Messages are pre-built outside the timed region so
/// the clock sees the produce path, not payload construction. `global_lock`
/// funnels every broker call through one mutex (the seed's concurrency
/// model); `batched` hands the broker kBatchRecords messages per call.
Cell run_produce(bool global_lock, bool batched) {
  mq::Broker broker(bench_config());
  std::mutex seed_mutex;

  std::vector<std::vector<mq::Message>> prebuilt(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    prebuilt[t].reserve(kPerThread);
    for (std::size_t i = 0; i < kPerThread; ++i) {
      // Runs of kBatchRecords share a topic, like the Producer facade's
      // per-topic accumulation.
      prebuilt[t].push_back(
          make_msg(kTopicNames[(i / kBatchRecords) % kTopics], t + 1));
    }
  }

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::span<mq::Message> msgs(prebuilt[t]);
      mq::ProduceStatus statuses[kBatchRecords];
      std::size_t sent = 0;
      while (sent < kPerThread) {
        if (batched) {
          const std::size_t n = std::min(kBatchRecords, kPerThread - sent);
          if (global_lock) {
            std::lock_guard lock(seed_mutex);
            broker.produce_batch(msgs.subspan(sent, n), 0, {statuses, n});
          } else {
            broker.produce_batch(msgs.subspan(sent, n), 0, {statuses, n});
          }
          sent += n;
        } else {
          if (global_lock) {
            std::lock_guard lock(seed_mutex);
            broker.produce(std::move(msgs[sent]), 0);
          } else {
            broker.produce(std::move(msgs[sent]), 0);
          }
          ++sent;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const auto stats = broker.stats();
  const double total = static_cast<double>(kThreads * kPerThread);
  if (stats.produced != kThreads * kPerThread) {
    std::fprintf(stderr, "produce accounting broken: %llu\n",
                 static_cast<unsigned long long>(stats.produced));
    std::exit(1);
  }
  return {total / secs, total * static_cast<double>(kPayloadBytes) / secs};
}

/// Drain a prefilled topic through poll_batch(), the one fetch path.
/// `deep_copy` clones every record's payload bytes into a fresh buffer
/// (the seed's value-copy consume); otherwise the refcounted bytes are
/// read in place.
Cell run_poll(bool deep_copy) {
  mq::Broker broker(bench_config());
  constexpr std::size_t kMessages = kThreads * kPerThread / 2;
  for (std::size_t i = 0; i < kMessages; ++i) {
    broker.produce(make_msg("t0", i % 8), 0);
  }
  const std::size_t filled = broker.depth("t0");

  std::uint64_t checksum = 0;
  std::size_t polled = 0;
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    const auto batch = broker.poll_batch("g", "t0", 512);
    if (batch.empty()) break;
    polled += batch.size();
    for (const auto& r : batch.records) {
      if (deep_copy) {
        const auto view = r.payload.view();
        std::vector<std::byte> copy(view.begin(), view.end());
        checksum += static_cast<std::uint64_t>(copy[polled % kPayloadBytes]);
      } else {
        // Zero-copy contract: the log and this record share the buffer.
        if (r.payload.use_count() < 2) {
          std::fprintf(stderr, "poll deep-copied a payload\n");
          std::exit(1);
        }
        checksum += static_cast<std::uint64_t>(r.payload[polled % kPayloadBytes]);
      }
    }
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (polled != filled || checksum == 0) {
    std::fprintf(stderr, "poll accounting broken\n");
    std::exit(1);
  }
  return {static_cast<double>(polled) / secs,
          static_cast<double>(polled * kPayloadBytes) / secs};
}

/// Best of two runs, to shrug off scheduler noise on shared machines.
template <typename F>
Cell best_of_two(F&& f) {
  const Cell a = f();
  const Cell b = f();
  return a.msgs_per_sec >= b.msgs_per_sec ? a : b;
}

}  // namespace

int main() {
  std::printf("== mq throughput: %zu producer threads, %zu topics, %zu B payloads ==\n",
              kThreads, kTopics, kPayloadBytes);
  std::printf("%-24s %14s %14s\n", "configuration", "msgs/s", "MB/s");

  struct Row {
    const char* name;
    Cell cell;
  };
  Row rows[] = {
      {"produce global+permsg", best_of_two([] { return run_produce(true, false); })},
      {"produce global+batched", best_of_two([] { return run_produce(true, true); })},
      {"produce sharded+permsg", best_of_two([] { return run_produce(false, false); })},
      {"produce sharded+batched", best_of_two([] { return run_produce(false, true); })},
      {"poll deep-copy", best_of_two([] { return run_poll(true); })},
      {"poll zero-copy", best_of_two([] { return run_poll(false); })},
  };
  for (const Row& r : rows) {
    std::printf("%-24s %14.0f %14.1f\n", r.name, r.cell.msgs_per_sec,
                r.cell.bytes_per_sec / 1e6);
  }

  const double speedup = rows[3].cell.msgs_per_sec / rows[0].cell.msgs_per_sec;
  const double poll_speedup = rows[5].cell.msgs_per_sec / rows[4].cell.msgs_per_sec;
  std::printf("\nsharded+batched vs global+permsg: %.2fx (target >= 2x): %s\n",
              speedup, speedup >= 2.0 ? "yes" : "NO");
  std::printf("zero-copy vs deep-copy poll: %.2fx\n", poll_speedup);

  if (std::FILE* f = std::fopen("BENCH_mq.json", "w")) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"threads\": %zu,\n  \"topics\": %zu,\n", kThreads, kTopics);
    std::fprintf(f, "  \"payload_bytes\": %zu,\n  \"batch_records\": %zu,\n",
                 kPayloadBytes, kBatchRecords);
    std::fprintf(f, "  \"cells\": {\n");
    const char* const keys[] = {"produce_global_permsg", "produce_global_batched",
                                "produce_sharded_permsg", "produce_sharded_batched",
                                "poll_deep_copy", "poll_zero_copy"};
    for (int i = 0; i < 6; ++i) {
      std::fprintf(f, "    \"%s\": {\"msgs_per_sec\": %.0f, \"bytes_per_sec\": %.0f}%s\n",
                   keys[i], rows[i].cell.msgs_per_sec, rows[i].cell.bytes_per_sec,
                   i < 5 ? "," : "");
    }
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"produce_speedup_sharded_batched_vs_global_permsg\": %.2f,\n",
                 speedup);
    std::fprintf(f, "  \"poll_speedup_zero_copy_vs_deep_copy\": %.2f\n", poll_speedup);
    std::fprintf(f, "}\n");
    std::fclose(f);
  }
  return speedup >= 2.0 ? 0 : 1;
}
