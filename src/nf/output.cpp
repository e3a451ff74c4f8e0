#include "nf/output.hpp"

namespace netalytics::nf {

OutputInterface::OutputInterface(BatchSink sink, std::size_t batch_records)
    : sink_(std::move(sink)),
      batch_records_(batch_records == 0 ? 1 : batch_records) {}

void OutputInterface::emit(Record record) {
  ++emitted_;
  if (record.trace == 0) record.trace = current_trace_;
  auto [it, inserted] = pending_.try_emplace(record.topic);
  (void)inserted;
  it->second.push_back(std::move(record));
  if (it->second.size() >= batch_records_) {
    // A full batch ships immediately, so the record that tipped it over is
    // the freshest timestamp we have — that is the ship time in virtual runs.
    ship(it->first, it->second, it->second.back().timestamp);
  }
}

void OutputInterface::flush(common::Timestamp now) {
  for (auto& [topic, batch] : pending_) {
    if (!batch.empty()) ship(topic, batch, now);
  }
}

void OutputInterface::ship(std::string_view topic, std::vector<Record>& batch,
                           common::Timestamp ship_time) {
  auto payload = serialize_batch(batch);
  if (records_ctr_ != nullptr) records_ctr_->inc(batch.size());
  if (bytes_ctr_ != nullptr) bytes_ctr_->inc(payload.size());
  if (batches_ctr_ != nullptr) batches_ctr_->inc();
  if (tracer_ != nullptr && ship_time != 0) {
    for (const Record& r : batch) {
      tracer_->stamp(common::StageTracer::Stage::emit, ship_time, r.timestamp);
    }
  }
  trace_scratch_.clear();
  for (const Record& r : batch) {
    if (r.trace == 0) continue;
    trace_scratch_.push_back(r.trace);
    if (recorder_ != nullptr) {
      recorder_->stamp(r.trace, common::TraceStage::emit, r.timestamp,
                       ship_time != 0 ? ship_time : r.timestamp);
    }
  }
  BatchInfo info;
  info.records = batch.size();
  info.ship_time = ship_time;
  info.traces = trace_scratch_;
  sink_(topic, std::move(payload), info);
  batch.clear();
}

}  // namespace netalytics::nf
