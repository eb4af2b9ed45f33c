// The tiered write path's equivalence gate (DESIGN.md "Tiered write path"):
// for any interleaving of staging, publication, and compaction, the merged
// base+delta probe must return exactly the external ids a full scan over the
// live view set returns — including while a compaction is in flight, after
// crash-recovered restores, and (in degraded form) under expired budgets.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>

#include "../test_util.h"
#include "index/validate.h"
#include "service/index_manager.h"
#include "util/budget.h"
#include "util/failpoint.h"

namespace rdfc {
namespace service {
namespace {

using rdfc::testing::ParseOrDie;

/// External ids the tiered merged walk reports for `q`, ascending.
std::vector<std::uint64_t> ProbeIds(const IndexManager::ReadGuard& guard,
                                    const query::BgpQuery& q,
                                    const index::ProbeOptions& options = {}) {
  std::vector<std::uint64_t> out;
  const index::ProbeResult result = guard->Find(q, options);
  for (const index::ProbeMatch& match : result.contained) {
    guard->AppendViewIds(match.stored_id, &out);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// The oracle: rebuilds a single pointer-tree index over exactly the live
/// views and runs the pairwise ScanContaining baseline — no tiers, no
/// tombstones, nothing shared with the code under test past the dictionary.
std::vector<std::uint64_t> OracleIds(
    const std::map<std::uint64_t, query::BgpQuery>& live,
    rdf::TermDictionary* dict, const query::BgpQuery& q) {
  index::MvIndex full(dict);
  for (const auto& [id, view] : live) {
    auto inserted = full.Insert(view, id);
    EXPECT_TRUE(inserted.ok());
  }
  std::vector<std::uint64_t> out;
  const index::ProbeResult result = full.ScanContaining(q);
  for (const index::ProbeMatch& match : result.contained) {
    for (std::uint64_t id : full.external_ids(match.stored_id)) {
      out.push_back(id);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Small-vocabulary view/probe texts: three predicates and chained shapes so
/// containments actually happen across views.
std::string ViewText(std::size_t i) {
  switch (i % 4) {
    case 0:
      return "ASK { ?x :p" + std::to_string(i % 3) + " ?y . }";
    case 1:
      return "ASK { ?x :p" + std::to_string(i % 3) + " ?y . ?y :q ?z . }";
    case 2:
      return "ASK { ?x ?v ?y . ?y :q ?z . }";
    default:
      return "ASK { ?x :p" + std::to_string(i % 3) + " ?y . ?x :r :c" +
             std::to_string(i % 2) + " . }";
  }
}

std::vector<std::string> ProbeTexts() {
  return {
      "ASK { ?a :p0 ?b . ?b :q ?c . }",
      "ASK { ?a :p1 ?b . ?b :q ?c . ?a :r :c0 . }",
      "ASK { ?a :p2 ?b . }",
      "ASK { ?a :p0 ?b . ?a :r :c1 . ?b :q ?c . }",
      "ASK { ?a :s ?b . }",  // matches nothing ever
  };
}

class TieredIndexTest : public ::testing::Test {
 protected:
  query::BgpQuery Q(const std::string& text) { return ParseOrDie(text, &dict_); }

  /// Asserts the tiered walk and the scan oracle agree on every probe in the
  /// standard probe set, and that the tier accounting identity holds.
  void ExpectEquivalence(IndexManager& manager, std::size_t slot,
                         const std::map<std::uint64_t, query::BgpQuery>& live,
                         const std::string& context) {
    IndexManager::ReadGuard guard = manager.Acquire(slot);
    EXPECT_EQ(guard->num_base_views() - guard->num_tombstones() +
                  guard->num_delta_views(),
              guard->num_views)
        << context;
    EXPECT_EQ(guard->num_views, live.size()) << context;
    for (const std::string& text : ProbeTexts()) {
      const query::BgpQuery q = Q(text);
      EXPECT_EQ(ProbeIds(guard, q), OracleIds(live, &dict_, q))
          << context << " probe: " << text;
    }
  }

  rdf::TermDictionary dict_;
};

TEST_F(TieredIndexTest, TombstoneMasksBaseViewUntilNextRefreeze) {
  TierOptions tier;
  tier.background_compaction = false;
  IndexManager manager(&dict_, {}, tier);
  const std::size_t slot = manager.RegisterReader();

  auto a = manager.StageAdd(Q("ASK { ?x :p0 ?y . }"));
  auto b = manager.StageAdd(Q("ASK { ?x :p0 ?y . ?y :q ?z . }"));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(manager.Publish().ok());
  ASSERT_TRUE(manager.Refreeze().ok());

  // Remove a base view: the next publish masks it with a tombstone instead
  // of rebuilding the base.
  ASSERT_TRUE(manager.StageRemove(*a).ok());
  ASSERT_TRUE(manager.Publish().ok());
  {
    IndexManager::ReadGuard guard = manager.Acquire(slot);
    EXPECT_EQ(guard->num_base_views(), 2u);
    EXPECT_EQ(guard->num_tombstones(), 1u);
    EXPECT_TRUE(guard->IsTombstoned(*a));
    EXPECT_FALSE(guard->IsTombstoned(*b));
    const auto hits = ProbeIds(guard, Q("ASK { ?s :p0 ?o . ?o :q ?w . }"));
    EXPECT_EQ(hits, std::vector<std::uint64_t>({*b}));
  }

  // Re-adding an equivalent view lands in the delta under a fresh id; the
  // merged result reports the delta id, never the tombstoned base id.
  auto a2 = manager.StageAdd(Q("ASK { ?x :p0 ?y . }"));
  ASSERT_TRUE(a2.ok());
  ASSERT_TRUE(manager.Publish().ok());
  {
    IndexManager::ReadGuard guard = manager.Acquire(slot);
    const auto hits = ProbeIds(guard, Q("ASK { ?s :p0 ?o . ?o :q ?w . }"));
    EXPECT_EQ(hits, std::vector<std::uint64_t>({*b, *a2}));
  }

  // The refreeze bakes the removal: tombstones drop to zero and the base
  // shrinks to the live set.
  ASSERT_TRUE(manager.Refreeze().ok());
  IndexManager::ReadGuard guard = manager.Acquire(slot);
  EXPECT_EQ(guard->num_tombstones(), 0u);
  EXPECT_EQ(guard->num_base_views(), 2u);
  EXPECT_EQ(guard->num_delta_views(), 0u);
  std::size_t frozen_shards = 0;
  for (std::size_t s = 0; s < guard->num_shards(); ++s) {
    if (guard->shard(s).base == nullptr) continue;
    EXPECT_TRUE(index::ValidateFrozen(*guard->shard(s).base).ok());
    ++frozen_shards;
  }
  EXPECT_GE(frozen_shards, 1u);
}

TEST_F(TieredIndexTest, RandomisedChurnMatchesScanOracle) {
  // The equivalence gate proper: a seeded random schedule of adds, removes,
  // publishes, and refreezes, with the full probe set checked against the
  // scan oracle after every publish.  Both tiers stay populated through most
  // of the run (removes hit base and delta views alike).
  TierOptions tier;
  tier.background_compaction = false;  // refreezes happen at scripted points
  IndexManager manager(&dict_, {}, tier);
  const std::size_t slot = manager.RegisterReader();

  std::mt19937_64 rng(20260808);
  std::map<std::uint64_t, query::BgpQuery> live;
  std::size_t next_view = 0;
  for (int round = 0; round < 40; ++round) {
    const std::size_t adds = 1 + rng() % 3;
    for (std::size_t i = 0; i < adds; ++i) {
      const query::BgpQuery view = Q(ViewText(next_view++));
      auto id = manager.StageAdd(view);
      ASSERT_TRUE(id.ok());
      live.emplace(*id, view);
    }
    if (!live.empty() && rng() % 3 == 0) {
      // Remove a uniformly chosen live view — base or delta, whichever.
      auto it = live.begin();
      std::advance(it, rng() % live.size());
      ASSERT_TRUE(manager.StageRemove(it->first).ok());
      live.erase(it);
    }
    ASSERT_TRUE(manager.Publish().ok());
    ExpectEquivalence(manager, slot, live, "round " + std::to_string(round));
    if (round % 7 == 6) {
      ASSERT_TRUE(manager.Refreeze().ok());
      ExpectEquivalence(manager, slot, live,
                        "post-refreeze round " + std::to_string(round));
    }
  }
  const IndexManager::TierStats stats = manager.tier_stats();
  EXPECT_GT(stats.compactions, 0u);
  EXPECT_GT(stats.base_views, 0u);
}

TEST_F(TieredIndexTest, PublishDuringCompactionReconciles) {
  // The deterministic interleaving the background path must survive: while a
  // compaction sits between its merge build and its publication swing, the
  // writer stages adds AND removes (including of views the merge already
  // baked) and publishes them.  The swing must reconcile — the compacted
  // version keeps every concurrently published change, versions stay
  // monotonic, and the merged answers still match the oracle.
  TierOptions tier;
  tier.background_compaction = false;  // drive the compaction synchronously
  IndexManager manager(&dict_, {}, tier);
  const std::size_t slot = manager.RegisterReader();

  std::map<std::uint64_t, query::BgpQuery> live;
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < 6; ++i) {
    const query::BgpQuery view = Q(ViewText(i));
    auto id = manager.StageAdd(view);
    ASSERT_TRUE(id.ok());
    live.emplace(*id, view);
    ids.push_back(*id);
  }
  ASSERT_TRUE(manager.Publish().ok());
  const std::uint64_t version_before = manager.current_version();

  // The hook fires off-lock between the merge build (which captured the six
  // views above) and the swing.
  std::uint64_t hook_version = 0;
  manager.set_compaction_hook([&] {
    // Remove a view the merge already baked, and stage two new views the
    // merge has never seen.
    ASSERT_TRUE(manager.StageRemove(ids[1]).ok());
    live.erase(ids[1]);
    for (std::size_t i = 6; i < 8; ++i) {
      const query::BgpQuery view = Q(ViewText(i));
      auto id = manager.StageAdd(view);
      ASSERT_TRUE(id.ok());
      live.emplace(*id, view);
    }
    auto version = manager.Publish();
    ASSERT_TRUE(version.ok());
    hook_version = *version;
  });
  auto compacted = manager.Refreeze();
  manager.set_compaction_hook(nullptr);
  ASSERT_TRUE(compacted.ok());

  // Monotonic: publish-in-the-window got version N+1, the swing N+2.
  EXPECT_EQ(hook_version, version_before + 1);
  EXPECT_EQ(*compacted, version_before + 2);
  EXPECT_EQ(manager.current_version(), *compacted);

  {
    IndexManager::ReadGuard guard = manager.Acquire(slot);
    // The removed-during-compaction view was baked into the new base by the
    // merge, so it must come back masked by a reconciliation tombstone; the
    // added-during-compaction views survive in the delta.
    EXPECT_EQ(guard->num_base_views(), 6u);
    EXPECT_TRUE(guard->IsTombstoned(ids[1]));
    EXPECT_EQ(guard->num_delta_views(), 2u);
  }
  ExpectEquivalence(manager, slot, live, "post-reconciliation");

  // A second refreeze with no concurrent traffic drains the reconciliation
  // state completely.
  ASSERT_TRUE(manager.Refreeze().ok());
  {
    IndexManager::ReadGuard guard = manager.Acquire(slot);
    EXPECT_EQ(guard->num_tombstones(), 0u);
    EXPECT_EQ(guard->num_delta_views(), 0u);
    EXPECT_EQ(guard->num_base_views(), live.size());
  }
  ExpectEquivalence(manager, slot, live, "post-drain");
}

TEST_F(TieredIndexTest, StageRemoveDuringCompactionOfDeltaOnlyView) {
  // Variant of the window race with no pre-existing base: the removed view
  // was delta-resident at capture, so the very first compaction bakes it
  // into the brand-new base — and the swing must immediately mask it with a
  // reconciliation tombstone against that new base.
  TierOptions tier;
  tier.background_compaction = false;
  IndexManager manager(&dict_, {}, tier);
  const std::size_t slot = manager.RegisterReader();

  std::map<std::uint64_t, query::BgpQuery> live;
  const query::BgpQuery v0 = Q("ASK { ?x :p0 ?y . }");
  const query::BgpQuery v1 = Q("ASK { ?x :p1 ?y . ?y :q ?z . }");
  auto id0 = manager.StageAdd(v0);
  auto id1 = manager.StageAdd(v1);
  ASSERT_TRUE(id0.ok() && id1.ok());
  live.emplace(*id0, v0);
  live.emplace(*id1, v1);
  ASSERT_TRUE(manager.Publish().ok());

  manager.set_compaction_hook([&] {
    ASSERT_TRUE(manager.StageRemove(*id0).ok());
    live.erase(*id0);
    ASSERT_TRUE(manager.Publish().ok());
  });
  ASSERT_TRUE(manager.Refreeze().ok());
  manager.set_compaction_hook(nullptr);

  IndexManager::ReadGuard guard = manager.Acquire(slot);
  EXPECT_EQ(guard->num_base_views(), 2u);
  EXPECT_TRUE(guard->IsTombstoned(*id0));
  EXPECT_EQ(guard->num_views, 1u);
  guard.Release();
  ExpectEquivalence(manager, slot, live, "delta-resident removal");
}

TEST_F(TieredIndexTest, StagedChangesSurviveCompactionThatKeepsDelta) {
  // A shard whose delta carries views across a compaction (published while
  // the fold was building) and which holds a staged add and staged removes
  // at the swing: the next Publish must rebuild its delta from the carried
  // entries that stay plus the staged add, and tombstone the staged removal
  // of a folded view.
  TierOptions tier;
  tier.background_compaction = false;
  tier.num_shards = 1;
  IndexManager manager(&dict_, {}, tier);
  const std::size_t slot = manager.RegisterReader();

  std::map<std::uint64_t, query::BgpQuery> live;
  auto add = [&](std::size_t i) {
    const query::BgpQuery view = Q(ViewText(i));
    auto id = manager.StageAdd(view);
    EXPECT_TRUE(id.ok());
    live.emplace(*id, view);
    return *id;
  };
  const std::uint64_t folded = add(0);
  add(1);
  ASSERT_TRUE(manager.Publish().ok());

  std::uint64_t carried_removed = 0;
  manager.set_compaction_hook([&] {
    carried_removed = add(2);
    add(3);
    ASSERT_TRUE(manager.Publish().ok());
    add(5);
    ASSERT_TRUE(manager.StageRemove(carried_removed).ok());
    live.erase(carried_removed);
    ASSERT_TRUE(manager.StageRemove(folded).ok());
    live.erase(folded);
  });
  ASSERT_TRUE(manager.Refreeze().ok());
  manager.set_compaction_hook(nullptr);
  EXPECT_EQ(manager.num_staged_changes(), 3u);
  {
    IndexManager::ReadGuard guard = manager.Acquire(slot);
    EXPECT_EQ(guard->num_base_views(), 2u);
    EXPECT_EQ(guard->num_delta_views(), 2u);
    EXPECT_EQ(guard->num_tombstones(), 0u);
  }

  ASSERT_TRUE(manager.Publish().ok());
  EXPECT_EQ(manager.num_staged_changes(), 0u);
  {
    IndexManager::ReadGuard guard = manager.Acquire(slot);
    EXPECT_EQ(guard->num_base_views(), 2u);
    EXPECT_EQ(guard->num_delta_views(), 2u);
    EXPECT_TRUE(guard->IsTombstoned(folded));
    EXPECT_FALSE(guard->IsTombstoned(carried_removed));
  }
  ExpectEquivalence(manager, slot, live, "after publish");
  ASSERT_TRUE(manager.Refreeze().ok());
  ExpectEquivalence(manager, slot, live, "after second refreeze");
}

TEST_F(TieredIndexTest, DegradedTieredProbeOnlyUnderReports) {
  // An exhausted budget must cut the merged walk short, never corrupt it:
  // contained stays a subset of the truth, filter_complete goes false, and
  // unverified stays disjoint from contained — across both tiers.
  TierOptions tier;
  tier.background_compaction = false;
  IndexManager manager(&dict_, {}, tier);
  const std::size_t slot = manager.RegisterReader();

  std::map<std::uint64_t, query::BgpQuery> live;
  for (std::size_t i = 0; i < 8; ++i) {
    const query::BgpQuery view = Q(ViewText(i));
    auto id = manager.StageAdd(view);
    ASSERT_TRUE(id.ok());
    live.emplace(*id, view);
  }
  ASSERT_TRUE(manager.Publish().ok());
  ASSERT_TRUE(manager.Refreeze().ok());
  // Populate the delta tier on top of the base.
  for (std::size_t i = 8; i < 12; ++i) {
    const query::BgpQuery view = Q(ViewText(i));
    auto id = manager.StageAdd(view);
    ASSERT_TRUE(id.ok());
    live.emplace(*id, view);
  }
  ASSERT_TRUE(manager.Publish().ok());

  IndexManager::ReadGuard guard = manager.Acquire(slot);
  ASSERT_GT(guard->num_base_views(), 0u);
  ASSERT_GT(guard->num_delta_views(), 0u);
  for (const std::string& text : ProbeTexts()) {
    const query::BgpQuery q = Q(text);
    const std::vector<std::uint64_t> truth = OracleIds(live, &dict_, q);

    auto reported_ids = [&guard](const index::ProbeResult& result) {
      std::vector<std::uint64_t> out;
      for (const index::ProbeMatch& match : result.contained) {
        guard->AppendViewIds(match.stored_id, &out);
      }
      std::sort(out.begin(), out.end());
      out.erase(std::unique(out.begin(), out.end()), out.end());
      return out;
    };

    // A budget already expired at entry: both tier walks must cut short and
    // the merged result must say so.
    {
      util::ProbeBudget budget;
      budget.Expire();
      index::ProbeOptions options;
      options.budget = &budget;
      const index::ProbeResult result = guard->Find(q, options);
      EXPECT_TRUE(result.degraded()) << text;
      const auto reported = reported_ids(result);
      EXPECT_TRUE(std::includes(truth.begin(), truth.end(), reported.begin(),
                                reported.end()))
          << "expired-budget probe over-reported: " << text;
    }

    // Step caps cutting the walk at various depths: wherever the merged walk
    // stops, the answer is either complete or flagged degraded, and reported
    // ids stay a subset of the truth.
    for (std::uint64_t cap : {1u, 8u, 64u, 512u}) {
      util::ProbeBudget budget;
      budget.set_max_steps(cap);
      index::ProbeOptions options;
      options.budget = &budget;
      const index::ProbeResult result = guard->Find(q, options);
      const auto reported = reported_ids(result);
      EXPECT_TRUE(std::includes(truth.begin(), truth.end(), reported.begin(),
                                reported.end()))
          << "capped probe over-reported: " << text << " cap " << cap;
      if (!result.degraded()) {
        EXPECT_EQ(reported, truth)
            << "incomplete answer not flagged degraded: " << text << " cap "
            << cap;
      }
    }
  }
}

TEST_F(TieredIndexTest, BackgroundCompactionTriggersOnDeltaSize) {
  TierOptions tier;
  tier.background_compaction = true;
  tier.compact_min_delta_views = 3;
  tier.compact_min_delta_fraction = 0.0;
  IndexManager manager(&dict_, {}, tier);
  const std::size_t slot = manager.RegisterReader();

  std::map<std::uint64_t, query::BgpQuery> live;
  for (std::size_t i = 0; i < 4; ++i) {
    const query::BgpQuery view = Q(ViewText(i));
    auto id = manager.StageAdd(view);
    ASSERT_TRUE(id.ok());
    live.emplace(*id, view);
  }
  ASSERT_TRUE(manager.Publish().ok());

  // The publish left 4 >= 3 delta views: a background refreeze must land
  // without any further writer action.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(30);
  while (manager.tier_stats().compactions == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "background compaction never ran";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  manager.StopCompaction();

  const IndexManager::TierStats stats = manager.tier_stats();
  EXPECT_EQ(stats.base_views, 4u);
  EXPECT_EQ(stats.delta_views, 0u);
  ExpectEquivalence(manager, slot, live, "after background compaction");

  // Below the trigger nothing schedules: one more view stays in the delta.
  const query::BgpQuery view = Q(ViewText(9));
  auto id = manager.StageAdd(view);
  ASSERT_TRUE(id.ok());
  live.emplace(*id, view);
  ASSERT_TRUE(manager.Publish().ok());
  EXPECT_EQ(manager.tier_stats().delta_views, 1u);
  ExpectEquivalence(manager, slot, live, "below trigger");
}

class TieredPersistenceTest : public TieredIndexTest {
 protected:
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
    // Base blobs are named <path>.base.<shard>.<generation>.
    for (std::size_t shard = 0; shard < IndexSnapshot::kMaxShards; ++shard) {
      for (std::uint64_t gen = 0; gen < 8; ++gen) {
        std::remove((path_ + ".base." + std::to_string(shard) + "." +
                     std::to_string(gen))
                        .c_str());
      }
    }
  }

  std::string path_ = ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name() +
                      std::string(".rdfcti");
};

TEST_F(TieredPersistenceTest, SaveRestoreRoundTripsBothTiers) {
  TierOptions tier;
  tier.background_compaction = false;
  IndexManager manager(&dict_, {}, tier);

  std::map<std::uint64_t, query::BgpQuery> live;
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < 6; ++i) {
    const query::BgpQuery view = Q(ViewText(i));
    auto id = manager.StageAdd(view);
    ASSERT_TRUE(id.ok());
    live.emplace(*id, view);
    ids.push_back(*id);
  }
  ASSERT_TRUE(manager.Publish().ok());
  ASSERT_TRUE(manager.Refreeze().ok());
  // Tombstone one base view and put two more in the delta.
  ASSERT_TRUE(manager.StageRemove(ids[2]).ok());
  live.erase(ids[2]);
  for (std::size_t i = 6; i < 8; ++i) {
    const query::BgpQuery view = Q(ViewText(i));
    auto id = manager.StageAdd(view);
    ASSERT_TRUE(id.ok());
    live.emplace(*id, view);
  }
  ASSERT_TRUE(manager.Publish().ok());
  // A checkpoint folds first: the tombstone and both delta views land in the
  // new base, and the saved image holds bases only.
  ASSERT_TRUE(manager.SaveTiered(path_).ok());
  const std::size_t original_slot = manager.RegisterReader();
  IndexManager::ReadGuard folded = manager.Acquire(original_slot);
  EXPECT_EQ(folded->num_base_views(), 7u);
  EXPECT_EQ(folded->num_tombstones(), 0u);
  EXPECT_EQ(folded->num_delta_views(), 0u);

  // Restore into a fresh dictionary/manager and compare every probe's
  // external ids — the durable handles — against the original oracle.
  rdf::TermDictionary dict2;
  IndexManager restored(&dict2, {}, tier);
  ASSERT_TRUE(restored.RestoreTiered(path_).ok());
  const std::size_t slot = restored.RegisterReader();
  {
    IndexManager::ReadGuard guard = restored.Acquire(slot);
    EXPECT_EQ(guard->num_base_views(), folded->num_base_views());
    EXPECT_EQ(guard->num_tombstones(), folded->num_tombstones());
    EXPECT_EQ(guard->num_delta_views(), folded->num_delta_views());
    EXPECT_EQ(guard->num_views, live.size());
    for (const std::string& text : ProbeTexts()) {
      EXPECT_EQ(ProbeIds(guard, ParseOrDie(text, &dict2)),
                OracleIds(live, &dict_, Q(text)))
          << "restored probe: " << text;
    }
  }

  // The restored manager keeps working: stage, publish, refreeze.
  const query::BgpQuery extra = ParseOrDie(ViewText(8), &dict2);
  auto id = restored.StageAdd(extra);
  ASSERT_TRUE(id.ok());
  live.emplace(*id, Q(ViewText(8)));
  ASSERT_TRUE(restored.Publish().ok());
  ASSERT_TRUE(restored.Refreeze().ok());
  IndexManager::ReadGuard guard = restored.Acquire(slot);
  EXPECT_EQ(guard->num_views, live.size());
  EXPECT_EQ(guard->num_tombstones(), 0u);
  for (const std::string& text : ProbeTexts()) {
    EXPECT_EQ(ProbeIds(guard, ParseOrDie(text, &dict2)),
              OracleIds(live, &dict_, Q(text)))
        << "post-restore churn probe: " << text;
  }
}

TEST_F(TieredPersistenceTest, CheckpointKeepsOnlyTheBlobsItNames) {
  // One shard so every fold bumps the same generation.  A checkpoint must
  // delete every blob it supersedes — not just generation - 1 — and must
  // not rewrite a blob the committed manifest already names.
  TierOptions tier;
  tier.background_compaction = false;
  tier.num_shards = 1;
  IndexManager manager(&dict_, {}, tier);
  auto blob = [this](std::uint64_t generation) {
    return path_ + ".base.0." + std::to_string(generation);
  };
  auto exists = [](const std::string& file) {
    struct stat st;
    return ::stat(file.c_str(), &st) == 0;
  };
  auto inode = [](const std::string& file) {
    struct stat st;
    return ::stat(file.c_str(), &st) == 0 ? st.st_ino : ino_t{0};
  };
  std::size_t next_view = 0;
  auto publish_one = [&] {
    ASSERT_TRUE(manager.StageAdd(Q(ViewText(next_view++))).ok());
    ASSERT_TRUE(manager.Publish().ok());
  };

  publish_one();
  ASSERT_TRUE(manager.Refreeze().ok());           // generation 1
  ASSERT_TRUE(manager.SaveTiered(path_).ok());
  EXPECT_TRUE(exists(blob(1)));
  publish_one();
  ASSERT_TRUE(manager.Refreeze().ok());           // generation 2
  publish_one();
  ASSERT_TRUE(manager.Refreeze().ok());           // generation 3
  ASSERT_TRUE(manager.SaveTiered(path_).ok());
  EXPECT_FALSE(exists(blob(1)));
  EXPECT_FALSE(exists(blob(2)));
  ASSERT_TRUE(exists(blob(3)));

  // Nothing changed: the committed blob stays as it is.
  const ino_t before = inode(blob(3));
  ASSERT_TRUE(manager.SaveTiered(path_).ok());
  EXPECT_EQ(inode(blob(3)), before);

  // A restored manager knows the restored manifest's blobs, too.
  rdf::TermDictionary dict2;
  IndexManager restored(&dict2, {}, tier);
  ASSERT_TRUE(restored.RestoreTiered(path_).ok());
  ASSERT_TRUE(restored.StageAdd(ParseOrDie(ViewText(next_view), &dict2)).ok());
  ASSERT_TRUE(restored.Publish().ok());
  ASSERT_TRUE(restored.SaveTiered(path_).ok());  // folds to generation 4
  EXPECT_FALSE(exists(blob(3)));
  EXPECT_TRUE(exists(blob(4)));
}

TEST_F(TieredPersistenceTest, FailedCheckpointLeavesNoOrphanBlobs) {
  // A checkpoint whose manifest cannot be written must remove the base
  // blobs it wrote (no manifest names them), and must never remove a blob
  // the committed manifest names.  A directory at the manifest's temp path
  // makes the manifest write fail after every blob has been written.
  TierOptions tier;
  tier.background_compaction = false;
  tier.num_shards = 1;
  auto blobs_on_disk = [this] {
    std::vector<std::string> names;
    const std::string prefix = path_ + ".base.";
    for (const auto& entry : std::filesystem::directory_iterator(".")) {
      const std::string name = entry.path().filename().string();
      if (name.rfind(prefix, 0) == 0) names.push_back(name);
    }
    std::sort(names.begin(), names.end());
    return names;
  };
  const std::vector<std::string> committed = {path_ + ".base.0.1"};
  const std::string tmp_dir = path_ + ".tmp";

  IndexManager manager(&dict_, {}, tier);
  ASSERT_TRUE(manager.StageAdd(Q(ViewText(0))).ok());
  ASSERT_TRUE(manager.Publish().ok());
  ASSERT_TRUE(manager.Refreeze().ok());  // generation 1
  ASSERT_TRUE(manager.SaveTiered(path_).ok());
  ASSERT_EQ(blobs_on_disk(), committed);

  ASSERT_TRUE(manager.StageAdd(Q(ViewText(1))).ok());
  ASSERT_TRUE(manager.Publish().ok());
  ASSERT_TRUE(manager.Refreeze().ok());  // generation 2
  ASSERT_TRUE(std::filesystem::create_directory(tmp_dir));
  EXPECT_FALSE(manager.SaveTiered(path_).ok());
  EXPECT_EQ(blobs_on_disk(), committed);
  rdf::TermDictionary dict3;
  IndexManager restored(&dict3, {}, tier);
  ASSERT_TRUE(restored.RestoreTiered(path_).ok());

  // A manager that does not know the committed manifest reads it and
  // writes above its generation; the failed save must leave the committed
  // blob in place.
  rdf::TermDictionary dict2;
  IndexManager other(&dict2, {}, tier);
  ASSERT_TRUE(other.StageAdd(ParseOrDie(ViewText(2), &dict2)).ok());
  ASSERT_TRUE(other.Publish().ok());
  ASSERT_TRUE(other.Refreeze().ok());  // generation 1, like the committed
  EXPECT_FALSE(other.SaveTiered(path_).ok());
  EXPECT_EQ(blobs_on_disk(), committed);
  std::filesystem::remove(tmp_dir);

  // With the obstacle gone the next save goes through.
  ASSERT_TRUE(manager.SaveTiered(path_).ok());
  EXPECT_EQ(blobs_on_disk(), std::vector<std::string>{path_ + ".base.0.2"});
}

TEST_F(TieredPersistenceTest, FreshManagerNeverOverwritesCommittedBlob) {
  // Manager A commits view urn:a at generation 1.  A fresh manager B, at
  // generation 1 too, checkpoints urn:b to the same path and fails before
  // its manifest commits: the committed manifest must still restore urn:a,
  // so B's blob must not have replaced A's.
  TierOptions tier;
  tier.background_compaction = false;
  tier.num_shards = 1;
  const std::string tmp_dir = path_ + ".tmp";
  std::map<std::uint64_t, query::BgpQuery> live_a;
  {
    IndexManager a(&dict_, {}, tier);
    const query::BgpQuery view = Q("ASK { ?x <urn:a> ?y . }");
    auto id = a.StageAdd(view);
    ASSERT_TRUE(id.ok());
    live_a.emplace(*id, view);
    ASSERT_TRUE(a.Publish().ok());
    ASSERT_TRUE(a.Refreeze().ok());  // generation 1
    ASSERT_TRUE(a.SaveTiered(path_).ok());
  }
  {
    rdf::TermDictionary dict_b;
    IndexManager b(&dict_b, {}, tier);
    ASSERT_TRUE(
        b.StageAdd(ParseOrDie("ASK { ?x <urn:b> ?y . }", &dict_b)).ok());
    ASSERT_TRUE(b.Publish().ok());
    ASSERT_TRUE(b.Refreeze().ok());  // generation 1, like A's
    ASSERT_TRUE(std::filesystem::create_directory(tmp_dir));
    EXPECT_FALSE(b.SaveTiered(path_).ok());
    std::filesystem::remove(tmp_dir);
  }
  rdf::TermDictionary dict2;
  IndexManager restored(&dict2, {}, tier);
  ASSERT_TRUE(restored.RestoreTiered(path_).ok());
  const std::size_t slot = restored.RegisterReader();
  IndexManager::ReadGuard guard = restored.Acquire(slot);
  EXPECT_EQ(guard->num_views, 1u);
  for (const char* text :
       {"ASK { ?s <urn:a> ?o . }", "ASK { ?s <urn:b> ?o . }"}) {
    EXPECT_EQ(ProbeIds(guard, ParseOrDie(text, &dict2)),
              OracleIds(live_a, &dict_, Q(text)))
        << "restored probe: " << text;
  }
}

TEST_F(TieredPersistenceTest, CheckpointOverWiderManifestDropsItsBlobs) {
  // A checkpoint over a manifest with more shards supersedes every blob
  // that manifest names, including those of shards it does not have.
  TierOptions wide;
  wide.background_compaction = false;
  wide.num_shards = 4;
  TierOptions narrow = wide;
  narrow.num_shards = 2;
  auto has_blobs = [this](std::size_t shard) {
    for (std::uint64_t gen = 0; gen < 8; ++gen) {
      if (std::filesystem::exists(path_ + ".base." + std::to_string(shard) +
                                  "." + std::to_string(gen))) {
        return true;
      }
    }
    return false;
  };
  {
    IndexManager manager(&dict_, {}, wide);
    for (std::size_t i = 0; i < 12; ++i) {
      ASSERT_TRUE(manager.StageAdd(Q(ViewText(i))).ok());
    }
    ASSERT_TRUE(manager.Publish().ok());
    ASSERT_TRUE(manager.SaveTiered(path_).ok());
  }
  ASSERT_TRUE(has_blobs(2) || has_blobs(3));

  rdf::TermDictionary dict2;
  std::map<std::uint64_t, query::BgpQuery> live;
  {
    IndexManager manager(&dict2, {}, narrow);
    const query::BgpQuery view = ParseOrDie(ViewText(0), &dict2);
    auto id = manager.StageAdd(view);
    ASSERT_TRUE(id.ok());
    live.emplace(*id, Q(ViewText(0)));
    ASSERT_TRUE(manager.Publish().ok());
    ASSERT_TRUE(manager.SaveTiered(path_).ok());
  }
  EXPECT_FALSE(has_blobs(2));
  EXPECT_FALSE(has_blobs(3));
  rdf::TermDictionary dict3;
  IndexManager restored(&dict3, {}, narrow);
  ASSERT_TRUE(restored.RestoreTiered(path_).ok());
  const std::size_t slot = restored.RegisterReader();
  IndexManager::ReadGuard guard = restored.Acquire(slot);
  EXPECT_EQ(guard->num_views, 1u);
  for (const std::string& text : ProbeTexts()) {
    EXPECT_EQ(ProbeIds(guard, ParseOrDie(text, &dict3)),
              OracleIds(live, &dict_, Q(text)))
        << "restored probe: " << text;
  }
}

TEST_F(TieredPersistenceTest, RestoreRequiresFreshManager) {
  TierOptions tier;
  tier.background_compaction = false;
  IndexManager manager(&dict_, {}, tier);
  ASSERT_TRUE(manager.StageAdd(Q("ASK { ?x :p0 ?y . }")).ok());
  ASSERT_TRUE(manager.Publish().ok());
  ASSERT_TRUE(manager.SaveTiered(path_).ok());
  // `manager` is no longer fresh: restoring into it must be refused.
  EXPECT_EQ(manager.RestoreTiered(path_).code(),
            util::StatusCode::kInvalidArgument);
}

#ifdef RDFC_FAILPOINTS
TEST_F(TieredPersistenceTest, CrashBetweenBaseAndManifestRecoversOldImage) {
  // compact.crash fires after the new base blob is committed but before the
  // manifest swings to it: the surviving manifest still names the previous
  // generation, so recovery loads the pre-crash image intact.
  TierOptions tier;
  tier.background_compaction = false;
  IndexManager manager(&dict_, {}, tier);

  std::map<std::uint64_t, query::BgpQuery> live_v1;
  for (std::size_t i = 0; i < 4; ++i) {
    const query::BgpQuery view = Q(ViewText(i));
    auto id = manager.StageAdd(view);
    ASSERT_TRUE(id.ok());
    live_v1.emplace(*id, view);
  }
  ASSERT_TRUE(manager.Publish().ok());
  ASSERT_TRUE(manager.Refreeze().ok());
  ASSERT_TRUE(manager.SaveTiered(path_).ok());  // generation 1 committed

  // More churn, another refreeze, then a save that dies mid-commit.
  ASSERT_TRUE(manager.StageAdd(Q(ViewText(5))).ok());
  ASSERT_TRUE(manager.Publish().ok());
  ASSERT_TRUE(manager.Refreeze().ok());
  ASSERT_TRUE(
      util::FailpointRegistry::Instance().Configure("compact.crash=1", 7).ok());
  EXPECT_FALSE(manager.SaveTiered(path_).ok());
  util::FailpointRegistry::Instance().Reset();

  rdf::TermDictionary dict2;
  IndexManager recovered(&dict2, {}, tier);
  ASSERT_TRUE(recovered.RestoreTiered(path_).ok());
  const std::size_t slot = recovered.RegisterReader();
  IndexManager::ReadGuard guard = recovered.Acquire(slot);
  EXPECT_EQ(guard->num_views, live_v1.size());  // the pre-crash image
  for (const std::string& text : ProbeTexts()) {
    EXPECT_EQ(ProbeIds(guard, ParseOrDie(text, &dict2)),
              OracleIds(live_v1, &dict_, Q(text)))
        << "recovered probe: " << text;
  }
}
#endif  // RDFC_FAILPOINTS

}  // namespace
}  // namespace service
}  // namespace rdfc
