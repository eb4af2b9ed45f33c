// Parameterized sweeps over the five workload generators: structural
// invariants that must hold for EVERY generated query, plus end-to-end
// index invariants (self-containment, dedup consistency) per workload.

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "containment/pipeline.h"
#include "index/mv_index.h"
#include "query/analysis.h"
#include "query/serialisation.h"
#include "query/witness.h"
#include "workload/workload.h"

namespace rdfc {
namespace {

// gtest names each case by dumping these bytes, so the struct carries no
// implicit padding: uninitialised padding bytes made the test names differ
// from build to build.
struct SweepCase {
  workload::WorkloadId id;
  std::uint8_t reserved[7] = {};
  std::size_t count;
};
static_assert(std::has_unique_object_representations_v<SweepCase>);

std::vector<query::BgpQuery> Generate(const SweepCase& c,
                                      rdf::TermDictionary* dict) {
  switch (c.id) {
    case workload::WorkloadId::kDbpedia:
      return workload::GenerateDbpedia(dict, c.count, 31);
    case workload::WorkloadId::kWatdiv:
      return workload::GenerateWatdiv(dict, c.count, 32);
    case workload::WorkloadId::kBsbm:
      return workload::GenerateBsbm(dict, c.count, 33);
    case workload::WorkloadId::kLubm: {
      auto result = workload::GenerateLubmExtended(dict, c.count, 34);
      EXPECT_TRUE(result.ok());
      return result.ok() ? std::move(result).value()
                         : std::vector<query::BgpQuery>{};
    }
    case workload::WorkloadId::kLdbc:
      return workload::GenerateLdbc(dict, c.count, 35);
  }
  return {};
}

class WorkloadSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(WorkloadSweepTest, StructuralInvariants) {
  rdf::TermDictionary dict;
  const auto queries = Generate(GetParam(), &dict);
  ASSERT_EQ(queries.size(), GetParam().count);
  for (const query::BgpQuery& q : queries) {
    ASSERT_FALSE(q.empty());
    const query::QueryShape shape = query::AnalyzeShape(q, dict);
    // Kind constraints of the RDF data model: subjects are never literals,
    // predicates are IRIs or variables.
    for (const rdf::Triple& t : q.patterns()) {
      EXPECT_FALSE(dict.IsLiteral(t.s));
      EXPECT_TRUE(dict.IsIri(t.p) || dict.IsVariable(t.p));
    }
    // ND-degree consistency: 1 iff witness-level f-graph.  (Shape-level
    // f-graph implies nd == 1; non-f-graph queries have nd > 1.)
    const std::uint64_t nd = query::NdDegree(q);
    if (shape.is_fgraph) {
      EXPECT_EQ(nd, 1u);
    } else {
      EXPECT_GT(nd, 1u);
    }
  }
}

TEST_P(WorkloadSweepTest, SerialisationInvariants) {
  rdf::TermDictionary dict;
  const auto queries = Generate(GetParam(), &dict);
  for (const query::BgpQuery& q : queries) {
    auto prepared = containment::PrepareStored(q, &dict);
    ASSERT_TRUE(prepared.ok());
    // Every non-var-predicate pattern appears as exactly one pair token.
    std::size_t pairs = 0;
    int depth = 0;
    bool balanced = true;
    for (const query::Token& tok : prepared->tokens) {
      switch (tok.type) {
        case query::TokenType::kPair: ++pairs; break;
        case query::TokenType::kOpen: ++depth; break;
        case query::TokenType::kClose: --depth; balanced &= depth >= 0; break;
        default: break;
      }
    }
    EXPECT_TRUE(balanced && depth == 0);
    EXPECT_EQ(pairs + prepared->var_pred_patterns.size(), q.size());
    // Canonicalisation preserved the pattern count.
    EXPECT_EQ(prepared->canonical.size(), q.size());
  }
}

TEST_P(WorkloadSweepTest, SelfContainmentThroughIndex) {
  rdf::TermDictionary dict;
  const auto queries = Generate(GetParam(), &dict);
  index::MvIndex index(&dict);
  std::vector<std::uint32_t> id_of;
  id_of.reserve(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto outcome = index.Insert(queries[i], i);
    ASSERT_TRUE(outcome.ok());
    id_of.push_back(outcome->stored_id);
  }
  // Probing with any inserted query must return (at least) the query itself.
  const std::size_t stride = std::max<std::size_t>(1, queries.size() / 64);
  for (std::size_t i = 0; i < queries.size(); i += stride) {
    const auto result = index.FindContaining(queries[i]);
    bool found_self = false;
    for (const auto& match : result.contained) {
      found_self = found_self || match.stored_id == id_of[i];
    }
    EXPECT_TRUE(found_self) << "query " << i << " of "
                            << workload::WorkloadName(GetParam().id) << "\n"
                            << queries[i].ToString(dict);
  }
}

TEST_P(WorkloadSweepTest, DedupConsistentWithEquivalence) {
  rdf::TermDictionary dict;
  const auto queries = Generate(GetParam(), &dict);
  index::MvIndex index(&dict);
  std::unordered_map<std::uint32_t, std::size_t> first_of;
  const std::size_t limit = std::min<std::size_t>(queries.size(), 300);
  for (std::size_t i = 0; i < limit; ++i) {
    auto outcome = index.Insert(queries[i], i);
    ASSERT_TRUE(outcome.ok());
    auto [it, fresh] = first_of.emplace(outcome->stored_id, i);
    if (!fresh) {
      // Dedup claims these two are the same query: they must be mutually
      // containing (Boolean equivalent).
      EXPECT_TRUE(
          containment::Contains(queries[i], queries[it->second], &dict));
      EXPECT_TRUE(
          containment::Contains(queries[it->second], queries[i], &dict));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadSweepTest,
    ::testing::Values(SweepCase{workload::WorkloadId::kDbpedia, {}, 600},
                      SweepCase{workload::WorkloadId::kWatdiv, {}, 400},
                      SweepCase{workload::WorkloadId::kBsbm, {}, 300},
                      SweepCase{workload::WorkloadId::kLubm, {}, 200},
                      SweepCase{workload::WorkloadId::kLdbc, {}, 53}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return workload::WorkloadName(info.param.id);
    });

}  // namespace
}  // namespace rdfc
