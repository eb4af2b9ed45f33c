// Cross-implementation property tests: the paper's pipeline (witness filter
// + NP verification), the mv-index walk, the pairwise scan, the direct
// homomorphism search, and the semantic definition of containment via the
// evaluation engine must all agree on randomly generated query pairs.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <type_traits>

#include "containment/homomorphism.h"
#include "containment/pipeline.h"
#include "eval/evaluator.h"
#include "index/mv_index.h"
#include "query/analysis.h"
#include "util/rng.h"

namespace rdfc {
namespace {

/// Random BGP generator with a deliberately tiny vocabulary so containments
/// actually occur and witness merges are frequent.
class RandomQueryGen {
 public:
  RandomQueryGen(rdf::TermDictionary* dict, std::uint64_t seed)
      : dict_(dict), rng_(seed) {
    for (int i = 0; i < 3; ++i) {
      preds_.push_back(dict_->MakeIri("urn:p" + std::to_string(i)));
    }
    for (int i = 0; i < 2; ++i) {
      consts_.push_back(dict_->MakeIri("urn:c" + std::to_string(i)));
    }
  }

  query::BgpQuery Generate(std::size_t max_triples, bool allow_var_preds) {
    query::BgpQuery q;
    const std::size_t n = 1 + rng_.Uniform(0, max_triples - 1);
    const std::size_t num_vars = 1 + rng_.Uniform(0, 3);
    for (std::size_t i = 0; i < n; ++i) {
      const rdf::TermId s = VarOrConst(num_vars, 0.85);
      rdf::TermId p = preds_[rng_.Uniform(0, preds_.size() - 1)];
      if (allow_var_preds && rng_.Chance(0.15)) {
        p = Var(rng_.Uniform(0, 1) + 10);  // separate var pool for predicates
      }
      const rdf::TermId o = VarOrConst(num_vars, 0.7);
      q.AddPattern(s, p, o);
    }
    return q;
  }

 private:
  rdf::TermId Var(std::size_t k) {
    return dict_->MakeVariable("r" + std::to_string(k));
  }
  rdf::TermId VarOrConst(std::size_t num_vars, double var_prob) {
    if (rng_.Chance(var_prob)) return Var(rng_.Uniform(0, num_vars - 1));
    return consts_[rng_.Uniform(0, consts_.size() - 1)];
  }

  rdf::TermDictionary* dict_;
  util::Rng rng_;
  std::vector<rdf::TermId> preds_;
  std::vector<rdf::TermId> consts_;
};

// gtest names each case by dumping these bytes, and ctest takes that dump
// into the test names, so the struct carries no implicit padding:
// uninitialised padding bytes made the listing differ from run to run.
struct PropertyCase {
  std::uint64_t seed;
  bool var_preds;
  std::uint8_t reserved[7] = {};
};
static_assert(std::has_unique_object_representations_v<PropertyCase>);

class ContainmentPropertyTest
    : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(ContainmentPropertyTest, PipelineAgreesWithGroundTruth) {
  rdf::TermDictionary dict;
  RandomQueryGen gen(&dict, GetParam().seed);
  int contained_count = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const query::BgpQuery q = gen.Generate(5, GetParam().var_preds);
    const query::BgpQuery w = gen.Generate(4, GetParam().var_preds);
    const bool truth = containment::IsContainedIn(q, w, dict);
    auto outcome = containment::Check(q, w, &dict);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome->contained, truth)
        << "Q =\n" << q.ToString(dict) << "\nW =\n" << w.ToString(dict);
    // Proposition 5.1: truth implies the witness filter passed.
    if (truth) {
      EXPECT_TRUE(outcome->filter_passed);
      ++contained_count;
    }
  }
  // The generator must produce real positives or the test proves nothing.
  EXPECT_GT(contained_count, 3);
}

TEST_P(ContainmentPropertyTest, IndexAgreesWithPairwise) {
  rdf::TermDictionary dict;
  RandomQueryGen gen(&dict, GetParam().seed ^ 0xABCDEF);
  index::MvIndex index(&dict);
  std::vector<query::BgpQuery> views;
  for (int i = 0; i < 60; ++i) {
    query::BgpQuery w = gen.Generate(4, GetParam().var_preds);
    auto insert = index.Insert(w, i);
    ASSERT_TRUE(insert.ok());
    views.push_back(std::move(w));
  }
  for (int trial = 0; trial < 40; ++trial) {
    const query::BgpQuery q = gen.Generate(5, GetParam().var_preds);
    const auto walk = index.FindContaining(q);
    const auto scan = index.ScanContaining(q);
    std::set<std::uint32_t> walk_ids, scan_ids;
    for (const auto& m : walk.contained) walk_ids.insert(m.stored_id);
    for (const auto& m : scan.contained) scan_ids.insert(m.stored_id);
    EXPECT_EQ(walk_ids, scan_ids) << "probe:\n" << q.ToString(dict);
    // And every verdict agrees with the direct homomorphism ground truth
    // over the deduplicated entries.
    for (std::uint32_t id = 0; id < index.num_entries(); ++id) {
      const bool truth = containment::IsContainedIn(
          q, index.entry(id).canonical, dict);
      EXPECT_EQ(walk_ids.count(id) > 0, truth)
          << "probe:\n" << q.ToString(dict) << "\nview:\n"
          << index.entry(id).canonical.ToString(dict);
    }
  }
}

TEST_P(ContainmentPropertyTest, SemanticSoundnessOnRandomGraphs) {
  // If Q ⊑ W then on EVERY graph Ask(Q) implies Ask(W).  Exercise with
  // random graphs over the same tiny vocabulary.
  rdf::TermDictionary dict;
  RandomQueryGen gen(&dict, GetParam().seed ^ 0x5EED);
  util::Rng rng(GetParam().seed);
  std::vector<rdf::TermId> nodes, preds;
  for (int i = 0; i < 4; ++i) {
    nodes.push_back(dict.MakeIri("urn:n" + std::to_string(i)));
  }
  for (int i = 0; i < 3; ++i) {
    preds.push_back(dict.MakeIri("urn:p" + std::to_string(i)));
  }
  // Graph constants must overlap the query constants for Ask to fire.
  nodes.push_back(dict.MakeIri("urn:c0"));
  nodes.push_back(dict.MakeIri("urn:c1"));

  for (int trial = 0; trial < 60; ++trial) {
    const query::BgpQuery q = gen.Generate(4, GetParam().var_preds);
    const query::BgpQuery w = gen.Generate(3, GetParam().var_preds);
    if (!containment::Contains(q, w, &dict)) continue;
    for (int g = 0; g < 5; ++g) {
      rdf::Graph graph;
      const std::size_t edges = 3 + rng.Uniform(0, 9);
      for (std::size_t e = 0; e < edges; ++e) {
        graph.Add(nodes[rng.Uniform(0, nodes.size() - 1)],
                  preds[rng.Uniform(0, preds.size() - 1)],
                  nodes[rng.Uniform(0, nodes.size() - 1)]);
      }
      if (eval::Ask(q, graph, dict)) {
        EXPECT_TRUE(eval::Ask(w, graph, dict))
            << "containment violated on a concrete graph\nQ =\n"
            << q.ToString(dict) << "\nW =\n" << w.ToString(dict);
      }
    }
  }
}

TEST_P(ContainmentPropertyTest, FreezeCharacterisation) {
  // Chandra-Merlin: Q ⊑ W iff W matches the canonical instance freeze(Q).
  rdf::TermDictionary dict;
  RandomQueryGen gen(&dict, GetParam().seed ^ 0xF00D);
  for (int trial = 0; trial < 80; ++trial) {
    const query::BgpQuery q = gen.Generate(4, /*allow_var_preds=*/false);
    const query::BgpQuery w = gen.Generate(3, /*allow_var_preds=*/false);
    const rdf::Graph frozen = eval::Freeze(q, &dict);
    const bool freeze_truth = eval::Ask(w, frozen, dict);
    EXPECT_EQ(containment::Contains(q, w, &dict), freeze_truth)
        << "Q =\n" << q.ToString(dict) << "\nW =\n" << w.ToString(dict);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ContainmentPropertyTest,
    ::testing::Values(PropertyCase{1, false, {}}, PropertyCase{2, false, {}},
                      PropertyCase{3, false, {}}, PropertyCase{4, true, {}},
                      PropertyCase{5, true, {}}, PropertyCase{6, true, {}},
                      PropertyCase{7, false, {}}, PropertyCase{8, true, {}}),
    [](const ::testing::TestParamInfo<PropertyCase>& info) {
      return "seed" + std::to_string(info.param.seed) +
             (info.param.var_preds ? "_varpreds" : "_iripreds");
    });

}  // namespace
}  // namespace rdfc
