#include "index/frozen_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "../test_util.h"
#include "index/persistence.h"
#include "index/validate.h"
#include "service/index_manager.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace rdfc {
namespace index {
namespace {

using rdfc::testing::ParseOrDie;

std::vector<std::uint32_t> ContainedIds(const ProbeResult& result) {
  std::vector<std::uint32_t> ids;
  ids.reserve(result.contained.size());
  for (const ProbeMatch& m : result.contained) ids.push_back(m.stored_id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// The acceptance criterion, applied per probe: identical contained id sets
/// (not just counts) between the pointer walk and the frozen walk, with and
/// without NP verification.
void ExpectEquivalent(const MvIndex& index, const FrozenMvIndex& frozen,
                      const query::BgpQuery& probe) {
  const auto tree = index.FindContaining(probe);
  const auto flat = frozen.FindContaining(probe);
  EXPECT_EQ(ContainedIds(tree), ContainedIds(flat));
  EXPECT_EQ(tree.candidates, flat.candidates);
  EXPECT_EQ(tree.np_checks, flat.np_checks);

  ProbeOptions filter_only;
  filter_only.verify = false;
  EXPECT_EQ(ContainedIds(index.FindContaining(probe, filter_only)),
            ContainedIds(frozen.FindContaining(probe, filter_only)));
}

/// Small-vocabulary random queries (the rdfc_fuzz recipe: few predicates and
/// constants force shared prefixes, dedup, and actual containments).
class SmallVocabGen {
 public:
  SmallVocabGen(rdf::TermDictionary* dict, std::uint64_t seed)
      : dict_(dict), rng_(seed) {
    for (int i = 0; i < 3; ++i) {
      preds_.push_back(dict_->MakeIri("urn:fz:p" + std::to_string(i)));
    }
    for (int i = 0; i < 2; ++i) {
      consts_.push_back(dict_->MakeIri("urn:fz:c" + std::to_string(i)));
    }
  }

  query::BgpQuery Draw(std::size_t max_triples, bool var_preds) {
    query::BgpQuery q;
    const std::size_t n = 1 + rng_.Uniform(0, max_triples - 1);
    const std::size_t vars = 1 + rng_.Uniform(0, 3);
    for (std::size_t i = 0; i < n; ++i) {
      rdf::TermId p = preds_[rng_.Uniform(0, preds_.size() - 1)];
      if (var_preds && rng_.Chance(0.12)) {
        p = dict_->MakeVariable("fz" + std::to_string(10 + rng_.Uniform(0, 1)));
      }
      q.AddPattern(Term(vars, 0.85), p, Term(vars, 0.7));
    }
    return q;
  }

 private:
  rdf::TermId Term(std::size_t vars, double var_prob) {
    if (rng_.Chance(var_prob)) {
      return dict_->MakeVariable("fz" + std::to_string(rng_.Uniform(0, vars - 1)));
    }
    return consts_[rng_.Uniform(0, consts_.size() - 1)];
  }

  rdf::TermDictionary* dict_;
  util::Rng rng_;
  std::vector<rdf::TermId> preds_;
  std::vector<rdf::TermId> consts_;
};

TEST(FrozenIndexTest, EmptyIndexFreezesToBareRoot) {
  rdf::TermDictionary dict;
  MvIndex index(&dict);
  FrozenMvIndex frozen(index);
  ASSERT_TRUE(ValidateFrozen(frozen).ok());
  EXPECT_EQ(frozen.nodes().size(), 1u);
  EXPECT_EQ(frozen.num_live_entries(), 0u);
  const auto result =
      frozen.FindContaining(ParseOrDie("ASK { ?x :p ?y . }", &dict));
  EXPECT_TRUE(result.contained.empty());
}

TEST(FrozenIndexTest, BfsLayoutHasAdjacentChildren) {
  rdf::TermDictionary dict;
  MvIndex index(&dict);
  ASSERT_TRUE(index.Insert(ParseOrDie("ASK { ?x :p ?y . }", &dict), 0).ok());
  ASSERT_TRUE(
      index.Insert(ParseOrDie("ASK { ?x :p ?y . ?y :q ?z . }", &dict), 1).ok());
  ASSERT_TRUE(index.Insert(ParseOrDie("ASK { ?x :r :c . }", &dict), 2).ok());
  FrozenMvIndex frozen(index);
  ASSERT_TRUE(ValidateFrozen(frozen).ok()) << ValidateFrozen(frozen).ToString();

  // Children of node i occupy [first_child, first_child + num_edges), and
  // spans tile the arrays — the layout the probe walk and persistence rely
  // on (also re-checked by ValidateFrozen F1).
  std::size_t edge_total = 0;
  std::size_t child_total = 1;
  for (const FrozenMvIndex::Node& n : frozen.nodes()) {
    EXPECT_EQ(n.first_edge, edge_total);
    EXPECT_EQ(n.first_child, child_total);
    edge_total += n.num_edges;
    child_total += n.num_edges;
  }
  EXPECT_EQ(child_total, frozen.nodes().size());
  EXPECT_EQ(edge_total, frozen.edge_first_tokens().size());
  EXPECT_GT(frozen.StructureBytes(), 0u);
}

TEST(FrozenIndexTest, EquivalenceOnRandomizedSmallVocabWorkload) {
  rdf::TermDictionary dict;
  SmallVocabGen gen(&dict, /*seed=*/7);
  MvIndex index(&dict);
  for (int i = 0; i < 120; ++i) {
    auto outcome = index.Insert(gen.Draw(4, /*var_preds=*/i % 4 == 0), i);
    ASSERT_TRUE(outcome.ok());
  }
  FrozenMvIndex frozen(index);
  ASSERT_TRUE(ValidateFrozen(frozen).ok()) << ValidateFrozen(frozen).ToString();
  EXPECT_EQ(frozen.num_live_entries(), index.num_live_entries());
  for (int i = 0; i < 60; ++i) {
    ExpectEquivalent(index, frozen, gen.Draw(5, i % 2 == 0));
  }
}

TEST(FrozenIndexTest, EquivalenceAfterChurnKeepsStoredIdsStable) {
  rdf::TermDictionary dict;
  SmallVocabGen gen(&dict, /*seed=*/11);
  MvIndex index(&dict);
  std::vector<std::uint32_t> ids;
  for (int i = 0; i < 100; ++i) {
    auto outcome = index.Insert(gen.Draw(4, i % 5 == 0), i);
    ASSERT_TRUE(outcome.ok());
    ids.push_back(outcome->stored_id);
  }
  util::Rng churn(99);
  for (std::uint32_t id : ids) {
    if (churn.Chance(0.4) && index.alive(id)) {
      ASSERT_TRUE(index.Remove(id).ok());
    }
  }
  FrozenMvIndex frozen(index);
  ASSERT_TRUE(ValidateFrozen(frozen).ok()) << ValidateFrozen(frozen).ToString();
  // Dead ids keep their (empty) slots so live ids — and probe results — are
  // identical between the two layouts.
  EXPECT_EQ(frozen.num_entries(), index.num_entries());
  EXPECT_EQ(frozen.num_live_entries(), index.num_live_entries());
  for (std::uint32_t id : ids) {
    EXPECT_EQ(frozen.alive(id), index.alive(id));
  }
  for (int i = 0; i < 60; ++i) {
    ExpectEquivalent(index, frozen, gen.Draw(5, i % 2 == 0));
  }
}

TEST(FrozenIndexTest, EquivalenceOnGeneratorWorkloads) {
  rdf::TermDictionary dict;
  MvIndex index(&dict);
  auto lubm = workload::LubmQueries(&dict);
  ASSERT_TRUE(lubm.ok());
  std::uint64_t ext = 0;
  for (const query::BgpQuery& q : *lubm) {
    ASSERT_TRUE(index.Insert(q, ext++).ok());
  }
  const auto watdiv = workload::GenerateWatdiv(&dict, 150, /*seed=*/3);
  for (const query::BgpQuery& q : watdiv) {
    ASSERT_TRUE(index.Insert(q, ext++).ok());
  }
  FrozenMvIndex frozen(index);
  ASSERT_TRUE(ValidateFrozen(frozen).ok()) << ValidateFrozen(frozen).ToString();
  for (const query::BgpQuery& q : *lubm) ExpectEquivalent(index, frozen, q);
  const auto probes = workload::GenerateWatdiv(&dict, 50, /*seed=*/17);
  for (const query::BgpQuery& q : probes) ExpectEquivalent(index, frozen, q);
}

TEST(FrozenIndexTest, SkeletonFreeEntriesCarryOver) {
  rdf::TermDictionary dict;
  MvIndex index(&dict);
  ASSERT_TRUE(index.Insert(ParseOrDie("ASK { ?x ?v :c . }", &dict), 0).ok());
  ASSERT_TRUE(index.Insert(ParseOrDie("ASK { ?x :p ?y . }", &dict), 1).ok());
  FrozenMvIndex frozen(index);
  ASSERT_TRUE(ValidateFrozen(frozen).ok());
  EXPECT_EQ(frozen.skeleton_free_entries(), index.skeleton_free_entries());
  ExpectEquivalent(index, frozen, ParseOrDie("ASK { ?a :p :c . }", &dict));
}

class FrozenPersistenceTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_ = ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name() +
                      std::string(".rdfcfz");
};

TEST_F(FrozenPersistenceTest, RoundTripPreservesProbesAndStoredIds) {
  rdf::TermDictionary dict;
  SmallVocabGen gen(&dict, /*seed=*/23);
  MvIndex index(&dict);
  for (int i = 0; i < 80; ++i) {
    ASSERT_TRUE(index.Insert(gen.Draw(4, i % 4 == 0), i).ok());
  }
  // Churn so the saved image contains dead slots.
  int removed = 0;
  for (std::uint32_t id = 0; removed < 2 && id < index.num_entries(); ++id) {
    if (index.alive(id)) {
      ASSERT_TRUE(index.Remove(id).ok());
      ++removed;
    }
  }
  ASSERT_EQ(removed, 2);
  FrozenMvIndex frozen(index);
  ASSERT_TRUE(SaveFrozenIndex(frozen, path_).ok());

  rdf::TermDictionary dict2;
  auto loaded = LoadFrozenIndex(path_, &dict2);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->num_entries(), frozen.num_entries());
  EXPECT_EQ((*loaded)->num_live_entries(), frozen.num_live_entries());
  EXPECT_EQ((*loaded)->nodes().size(), frozen.nodes().size());
  EXPECT_EQ((*loaded)->label_pool().size(), frozen.label_pool().size());

  // Stored ids are stable across the cycle: same probe, same ids, against a
  // freshly re-interned dictionary.  gen2 replays gen's full draw sequence
  // (inserts first) so probe i matches on both sides.
  SmallVocabGen gen2(&dict2, /*seed=*/23);
  for (int i = 0; i < 80; ++i) (void)gen2.Draw(4, i % 4 == 0);
  for (int i = 0; i < 40; ++i) {
    const query::BgpQuery p1 = gen.Draw(5, i % 2 == 0);
    const query::BgpQuery p2 = gen2.Draw(5, i % 2 == 0);
    EXPECT_EQ(ContainedIds(frozen.FindContaining(p1)),
              ContainedIds((*loaded)->FindContaining(p2)));
    EXPECT_EQ(ContainedIds(frozen.FindContaining(p1)),
              ContainedIds(index.FindContaining(p1)));
  }
  for (std::uint32_t id = 0; id < frozen.num_entries(); ++id) {
    ASSERT_EQ((*loaded)->alive(id), frozen.alive(id));
    if (frozen.alive(id)) {
      EXPECT_EQ((*loaded)->external_ids(id), frozen.external_ids(id));
    }
  }
}

TEST_F(FrozenPersistenceTest, CorruptionIsDetected) {
  rdf::TermDictionary dict;
  MvIndex index(&dict);
  ASSERT_TRUE(index.Insert(ParseOrDie("ASK { ?x :p ?y . }", &dict), 0).ok());
  FrozenMvIndex frozen(index);
  ASSERT_TRUE(SaveFrozenIndex(frozen, path_).ok());

  // Flip one byte in the middle of the file; the checksum (or a structural
  // check before it) must reject the image.
  std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(0, std::ios::end);
  const auto size = static_cast<std::streamoff>(f.tellg());
  ASSERT_GT(size, 32);
  f.seekp(size / 2);
  char byte = 0;
  f.seekg(size / 2);
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5A);
  f.seekp(size / 2);
  f.write(&byte, 1);
  f.close();

  rdf::TermDictionary dict2;
  auto loaded = LoadFrozenIndex(path_, &dict2);
  EXPECT_FALSE(loaded.ok());
}

TEST(FrozenServiceTest, RefreezeBakesDeltaIntoFrozenBase) {
  rdf::TermDictionary dict;
  service::TierOptions tier;
  tier.background_compaction = false;  // compact only when told to
  tier.num_shards = 1;                 // single shard: base is shard(0).base
  service::IndexManager manager(&dict, {}, tier);
  const std::size_t slot = manager.RegisterReader();
  ASSERT_TRUE(manager.StageAdd(ParseOrDie("ASK { ?x :p ?y . }", &dict)).ok());
  ASSERT_TRUE(manager.Publish().ok());
  {
    // Freshly published views live in the pointer-tree delta tier.
    service::IndexManager::ReadGuard guard = manager.Acquire(slot);
    EXPECT_EQ(guard->shard(0).base, nullptr);
    EXPECT_EQ(guard->num_delta_views(), 1u);
  }
  ASSERT_TRUE(manager.Refreeze().ok());
  service::IndexManager::ReadGuard guard = manager.Acquire(slot);
  ASSERT_NE(guard->shard(0).base, nullptr);
  ASSERT_TRUE(ValidateFrozen(*guard->shard(0).base).ok());
  EXPECT_EQ(guard->num_base_views(), 1u);
  EXPECT_EQ(guard->num_delta_views(), 0u);
  // The merged walk over the compacted snapshot and a direct frozen walk
  // agree (there is no delta left, so the merge is exactly the base walk).
  const containment::PreparedProbe probe = containment::PrepareProbe(
      ParseOrDie("ASK { ?a :p ?b . ?b :q ?c . }", &dict), dict);
  EXPECT_EQ(ContainedIds(guard->Find(probe)),
            ContainedIds(guard->shard(0).base->FindContaining(probe)));
}

TEST(FrozenServiceTest, DeltaOnlyConfigurationServesFromPointerTree) {
  rdf::TermDictionary dict;
  service::TierOptions tier;
  tier.background_compaction = false;
  tier.num_shards = 1;
  service::IndexManager manager(&dict, {}, tier);
  const std::size_t slot = manager.RegisterReader();
  ASSERT_TRUE(manager.StageAdd(ParseOrDie("ASK { ?x :p ?y . }", &dict)).ok());
  ASSERT_TRUE(manager.Publish().ok());
  service::IndexManager::ReadGuard guard = manager.Acquire(slot);
  // Never compacted: pure pointer-tree mode.
  EXPECT_EQ(guard->shard(0).base, nullptr);
  const containment::PreparedProbe probe =
      containment::PrepareProbe(ParseOrDie("ASK { ?a :p ?b . }", &dict), dict);
  EXPECT_EQ(ContainedIds(guard->Find(probe)).size(), 1u);
}

}  // namespace
}  // namespace index
}  // namespace rdfc
