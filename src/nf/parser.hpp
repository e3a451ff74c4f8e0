// Parser interface and registry (§3.1). "System administrators can develop
// their own parsers with a simple interface: they define a packet handler
// function called when each packet arrives and make use of the monitoring
// library's output functions to emit the desired information."
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"
#include "net/decode.hpp"
#include "nf/record.hpp"

namespace netalytics::nf {

/// Where a parser's records go. Implementations batch (OutputInterface) or
/// collect directly (tests).
class RecordSink {
 public:
  virtual ~RecordSink() = default;
  virtual void emit(Record record) = 0;
};

/// A protocol parser. A monitor runs one or more instances per parser;
/// flow-id dispatch guarantees all packets of a flow reach the same
/// instance, so per-flow state never splits.
class PacketParser {
 public:
  virtual ~PacketParser() = default;

  virtual std::string_view name() const noexcept = 0;

  /// Handle one decoded packet. `pkt.frame` stays valid for the call only.
  virtual void on_packet(const net::DecodedPacket& pkt, RecordSink& sink) = 0;

  /// Periodic tick for parsers that aggregate across packets; default no-op.
  virtual void on_tick(common::Timestamp now, RecordSink& sink);

  /// Flush remaining aggregate state at shutdown; default forwards to on_tick.
  virtual void on_close(common::Timestamp now, RecordSink& sink);
};

using ParserFactory = std::function<std::unique_ptr<PacketParser>()>;

/// Process-wide parser registry; the query compiler validates PARSE clauses
/// against it and monitors instantiate parsers through it.
class ParserRegistry {
 public:
  static ParserRegistry& instance();

  /// Returns false (and ignores the call) if the name is already taken.
  bool register_parser(std::string name, ParserFactory factory);
  bool contains(std::string_view name) const;
  /// Throws std::invalid_argument for unknown names.
  std::unique_ptr<PacketParser> make(std::string_view name) const;
  std::vector<std::string> names() const;

 private:
  ParserRegistry() = default;
  std::vector<std::pair<std::string, ParserFactory>> entries_;
};

/// Collects records into a vector; used by tests and inline pipelines.
class VectorSink final : public RecordSink {
 public:
  void emit(Record record) override { records.push_back(std::move(record)); }
  std::vector<Record> records;
};

}  // namespace netalytics::nf
