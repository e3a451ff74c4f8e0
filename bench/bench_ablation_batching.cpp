// Ablation — batching at the output interface (§5.1): tuples are shipped
// in batches "to lower the overhead of queue manipulation operations and
// when preparing data tuples to be sent to the aggregators". Sweeps the
// batch size through the serialize+send path.
#include <benchmark/benchmark.h>

#include "mq/producer.hpp"
#include "nf/output.hpp"

using namespace netalytics;

namespace {

nf::Record sample_record(std::uint64_t id) {
  nf::Record r;
  r.topic = "http_get";
  r.id = id;
  r.timestamp = id;
  r.fields = {std::string("request"), std::string("/videos/item-1234.mp4")};
  return r;
}

void BM_OutputBatchSize(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  mq::Cluster cluster(1);
  mq::Producer producer(cluster, 1);
  common::MetricsRegistry registry;
  auto& records = registry.counter("records");
  auto& bytes = registry.counter("bytes");
  nf::OutputInterface out(
      [&producer](std::string_view topic, std::vector<std::byte> payload,
                  const nf::BatchInfo&) { producer.send(topic, std::move(payload), 0); },
      batch);
  out.bind_counters(&records, &bytes, nullptr);
  std::uint64_t id = 0;
  for (auto _ : state) {
    out.emit(sample_record(id++));
  }
  out.flush();
  state.SetItemsProcessed(state.iterations());
  state.counters["bytes/record"] = benchmark::Counter(
      static_cast<double>(bytes.value()) /
      std::max<double>(1.0, static_cast<double>(records.value())));
}
BENCHMARK(BM_OutputBatchSize)->Arg(1)->Arg(8)->Arg(64)->Arg(256);

void BM_SerializeBatch(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<nf::Record> batch;
  for (std::size_t i = 0; i < n; ++i) batch.push_back(sample_record(i));
  for (auto _ : state) {
    benchmark::DoNotOptimize(nf::serialize_batch(batch));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SerializeBatch)->Arg(1)->Arg(64);

void BM_DeserializeBatch(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<nf::Record> batch;
  for (std::size_t i = 0; i < n; ++i) batch.push_back(sample_record(i));
  const auto payload = nf::serialize_batch(batch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nf::deserialize_batch(payload));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DeserializeBatch)->Arg(1)->Arg(64);

}  // namespace
