#include "query/semantic.hpp"

#include <algorithm>
#include <set>

#include "nf/parser.hpp"
#include "query/parser.hpp"
#include "stream/processors.hpp"

namespace netalytics::query {

namespace {

common::Error err(std::string message) {
  return common::Error{"semantic", std::move(message)};
}

}  // namespace

common::Expected<ValidatedQuery> validate(Query query) {
  if (query.parsers.empty()) return err("PARSE clause names no parsers");

  const auto& registry = nf::ParserRegistry::instance();
  std::set<std::string> seen;
  std::vector<std::string> topics;
  for (const auto& name : query.parsers) {
    if (!registry.contains(name)) {
      return err("unknown parser '" + name + "'");
    }
    if (seen.insert(name).second) topics.push_back(name);
  }

  if (query.from.empty() && query.to.empty()) {
    return err("query requires a FROM and/or TO clause");
  }
  // "*" is only meaningful alongside a concrete peer: monitor placement
  // needs at least one resolvable endpoint (§3.4).
  const bool all_any =
      std::all_of(query.from.begin(), query.from.end(),
                  [](const Address& a) { return a.kind == Address::Kind::any; }) &&
      std::all_of(query.to.begin(), query.to.end(),
                  [](const Address& a) { return a.kind == Address::Kind::any; });
  if (all_any) {
    return err("at least one FROM/TO address must name a host, ip or subnet "
               "(network-wide monitoring requires manual placement)");
  }

  if (query.processors.empty()) return err("PROCESS clause names no processors");
  for (const auto& p : query.processors) {
    if (!stream::is_known_processor(p.name)) {
      return err("unknown processor '" + p.name + "'");
    }
    if ((p.name == "diff-group" || p.name == "diff-group-avg") &&
        std::find(topics.begin(), topics.end(), "tcp_conn_time") == topics.end()) {
      return err("processor '" + p.name + "' requires the tcp_conn_time parser");
    }
    // Numeric arguments are user input: reject the malformed ones here,
    // before anything is deployed, exactly as build_processor would.
    const stream::ProcessorParams params{p.args};
    if (auto k = params.get_u64("k", 0); !k) return k.error();
    if (auto w = params.get_ticks("w", 0); !w) return w.error();
    if (p.name == "diff-group" || p.name == "diff-group-avg") {
      const auto group = p.args.find("group");
      if (group != p.args.end() && group->second == "get" &&
          std::find(topics.begin(), topics.end(), "http_get") == topics.end()) {
        return err("diff-group with group=get requires the http_get parser");
      }
    }
  }

  if (query.sample.mode == SampleSpec::Mode::fixed &&
      (query.sample.rate < 0.0 || query.sample.rate > 1.0)) {
    return err("sample rate out of range");
  }

  ValidatedQuery out;
  out.query = std::move(query);
  out.topics = std::move(topics);
  return out;
}

common::Expected<ValidatedQuery> parse_and_validate(std::string_view input) {
  auto parsed = parse_query(input);
  if (!parsed) return parsed.error();
  return validate(std::move(*parsed));
}

}  // namespace netalytics::query
