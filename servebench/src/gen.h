// Workload generation for the serving benchmark.
//
// Views come from the repository's own generators (workload::GenerateWatdiv
// and workload::GenerateDbpedia) and are rendered with sparql::WriteQuery.
// What is new here is only what a serving workload adds on top of a query
// log: probes specialised from the views, bursts of identical requests,
// constants no view has, and the publish schedule.  Every query is kept both
// as SPARQL text and as the structured BgpQuery over the workload's own
// dictionary, which the index-free oracle reads.  The program under test only
// ever receives the texts.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "query/bgp_query.h"
#include "rdf/dictionary.h"

namespace servebench {

struct GenQuery {
  rdfc::query::BgpQuery query;  // terms of Workload::dict
  std::string text;             // sparql::WriteQuery(query)
};

/// Share of --seconds spent in the closed loop; the open loop takes the rest.
inline constexpr double kClosedShare = 0.2;
/// Pipelined connections of the closed loop.
inline constexpr std::size_t kClosedConnections = 2;
/// Connections of the open loop, each with one request at a time.
inline constexpr std::size_t kOpenConnections = 64;

/// One publish of the write schedule: `adds` new views (taken in order from
/// Workload::reserve) and `removes` live views, chosen by the seeded
/// publisher.
struct PublishBatch {
  std::uint32_t adds = 0;
  std::uint32_t removes = 0;
};

struct Workload {
  std::string name;
  /// The generators' dictionary.  The service interns the texts into its
  /// own; this one is read only by the oracle.
  std::unique_ptr<rdfc::rdf::TermDictionary> dict;
  std::vector<GenQuery> corpus;   // published during set-up
  std::vector<GenQuery> reserve;  // added by the publish schedule, in order
  std::vector<GenQuery> probes;   // distinct probe queries
  /// Request stream as probe indices; a burst is `burst` consecutive equal
  /// entries.  Cycled when a phase sends more requests than it holds.
  std::vector<std::uint32_t> requests;
  std::uint32_t burst = 1;
  std::vector<PublishBatch> publishes;
  std::uint64_t remove_seed = 0;

  // Schedule (see README "Workloads").
  double open_rate = 0;           // offered probe requests per second
  double publish_period_ms = 0;   // one publish every period, open loop only
  std::size_t closed_depth = 32;  // outstanding requests per connection
  std::size_t oracle_every = 16;  // every k-th response is oracle-checked
  std::size_t unseen_constants = 0;  // distinct never-indexed IRIs in probes
};

/// Builds a workload.  `quick` shrinks corpus and probe counts; `seconds`
/// sizes the publish schedule so that it spans the open-loop phase.
Workload MakeWorkload(const std::string& name, std::uint64_t seed,
                      double seconds, bool quick);

bool KnownWorkload(const std::string& name);

}  // namespace servebench
