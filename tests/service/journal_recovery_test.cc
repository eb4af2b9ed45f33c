#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "index/journal.h"
#include "service/containment_service.h"
#include "util/failpoint.h"

// Crash-recovery contract of the journalled service (DESIGN.md
// "Durability"): a ContainmentService brought up over the journal of a dead
// one must answer every probe exactly as the dead one would have — for every
// publish that was acknowledged — with no re-journalling, stable external
// ids, and fresh ids disjoint from everything recovered.

namespace rdfc {
namespace service {
namespace {

ServiceOptions TestOptions() {
  ServiceOptions options;
  options.num_threads = 2;
  options.queue_capacity = 64;
  options.parser.default_prefixes[""] = "urn:j:";
  return options;
}

index::JournalOptions Journal(const std::string& path) {
  index::JournalOptions options;
  options.path = path;
  options.fsync = index::JournalFsync::kOff;  // kernel durability is enough
  return options;
}

class JournalRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string stem =
        ::testing::TempDir() + "journal_recovery_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    journal_path_ = stem + ".wal";
    snapshot_path_ = stem + ".rdfcti";
    CleanFiles();
  }

  void TearDown() override { CleanFiles(); }

  void CleanFiles() {
    std::remove(journal_path_.c_str());
    std::remove((journal_path_ + ".tmp").c_str());
    std::remove(snapshot_path_.c_str());
    for (int shard = 0; shard < 16; ++shard) {
      for (int gen = 0; gen < 64; ++gen) {
        std::remove((snapshot_path_ + ".base." + std::to_string(shard) + "." +
                     std::to_string(gen))
                        .c_str());
      }
    }
  }

  static std::vector<std::string> ProbeTexts() {
    return {
        "ASK { ?a :p ?b . ?a :q ?c . }", "ASK { ?a :p ?b . }",
        "ASK { ?a :q ?b . }",            "ASK { ?a :r ?b . ?b :q ?c . }",
        "ASK { ?a :r ?b . }",
    };
  }

  /// Contained-id answers for the shared probe set.
  static std::vector<std::vector<std::uint64_t>> Answers(
      ContainmentService* svc) {
    std::vector<std::vector<std::uint64_t>> out;
    for (const std::string& text : ProbeTexts()) {
      auto response = svc->Probe(text);
      EXPECT_TRUE(response.ok()) << response.status().ToString();
      out.push_back(response.ok() ? response->containing_views
                                  : std::vector<std::uint64_t>{});
    }
    return out;
  }

  /// Sequences a plain open of the journal file would replay (no
  /// watermark), and its last sequence.
  std::vector<std::uint64_t> JournalSequences(std::uint64_t* last) {
    rdf::TermDictionary dict;
    std::vector<std::uint64_t> sequences;
    auto journal = index::WriteAheadJournal::Open(
        Journal(journal_path_), &dict,
        [&sequences](const index::JournalBatch& batch) {
          sequences.push_back(batch.sequence);
          return util::Status::OK();
        });
    EXPECT_TRUE(journal.ok()) << journal.status().ToString();
    if (journal.ok()) *last = journal.value()->stats().last_sequence;
    return sequences;
  }

  std::string ReadJournal() {
    std::ifstream in(journal_path_, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  void WriteJournal(const std::string& bytes) {
    std::ofstream out(journal_path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// Appends one journal record per entry of `batches` (each a list of
  /// (kind, view id) ops; adds carry the same small view).
  void AppendRecords(
      const std::vector<std::vector<std::pair<index::JournalOp::Kind,
                                              std::uint64_t>>>& batches) {
    rdf::TermDictionary dict;
    auto journal = index::WriteAheadJournal::Open(
        Journal(journal_path_), &dict,
        [](const index::JournalBatch&) { return util::Status::OK(); });
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    for (const auto& ops : batches) {
      index::JournalBatch batch;
      batch.sequence = journal.value()->next_sequence();
      batch.version = batch.sequence;
      for (const auto& [kind, id] : ops) {
        index::JournalOp op;
        op.kind = kind;
        op.view_id = id;
        if (kind == index::JournalOp::Kind::kAdd) {
          op.view = rdfc::testing::ParseOrDie("ASK { ?x :p ?y . }", &dict);
        }
        batch.ops.push_back(std::move(op));
      }
      ASSERT_TRUE(journal.value()->Append(batch, dict).ok());
    }
  }

  /// A restarted service: the checkpoint restored, then the journal.
  void Recover(ContainmentService* svc) {
    ASSERT_TRUE(svc->manager().RestoreTiered(snapshot_path_).ok());
    const util::Status enabled = svc->EnableJournal(Journal(journal_path_));
    ASSERT_TRUE(enabled.ok()) << enabled.ToString();
  }

  std::string journal_path_;
  std::string snapshot_path_;
};

ServiceOptions ManualCompaction() {
  ServiceOptions options = TestOptions();
  options.tier.background_compaction = false;
  return options;
}

TEST_F(JournalRecoveryTest, ReplayRestoresAcknowledgedPublishes) {
  std::vector<std::vector<std::uint64_t>> expected;
  std::uint64_t removed_id = 0;
  {
    ContainmentService svc(TestOptions());
    ASSERT_TRUE(svc.EnableJournal(Journal(journal_path_)).ok());
    // Three acknowledged batches: adds, an empty publish, a remove.
    auto v1 = svc.AddView("ASK { ?x :p ?y . }");
    auto v2 = svc.AddView("ASK { ?x :q ?y . }");
    ASSERT_TRUE(v1.ok() && v2.ok());
    ASSERT_TRUE(svc.Publish().ok());
    ASSERT_TRUE(svc.Publish().ok());  // empty: still one journal record
    auto v3 = svc.AddView("ASK { ?x :r ?y . ?y :q ?z . }");
    ASSERT_TRUE(v3.ok());
    removed_id = *v2;
    ASSERT_TRUE(svc.RemoveView(removed_id).ok());
    ASSERT_TRUE(svc.Publish().ok());
    EXPECT_EQ(svc.manager().journal_stats().last_sequence, 3u);
    expected = Answers(&svc);
  }

  ContainmentService recovered(TestOptions());
  ASSERT_TRUE(recovered.EnableJournal(Journal(journal_path_)).ok());
  const index::JournalStats stats = recovered.manager().journal_stats();
  EXPECT_EQ(stats.records_replayed, 3u);
  EXPECT_EQ(stats.last_sequence, 3u);
  EXPECT_EQ(stats.records_appended, 0u);  // replay must not re-journal
  EXPECT_FALSE(stats.degraded);
  EXPECT_EQ(Answers(&recovered), expected);

  // The tombstoned view stays dead after recovery.
  auto gone = recovered.Probe("ASK { ?a :q ?b . }");
  ASSERT_TRUE(gone.ok());
  for (std::uint64_t id : gone->containing_views) EXPECT_NE(id, removed_id);
}

TEST_F(JournalRecoveryTest, EnableJournalRefusesPreexistingStagedIntents) {
  ContainmentService svc(TestOptions());
  ASSERT_TRUE(svc.AddView("ASK { ?x :p ?y . }").ok());
  // Staged intents from before the journal would be acknowledged by the next
  // publish yet invisible to replay — refuse rather than silently leak.
  EXPECT_EQ(svc.EnableJournal(Journal(journal_path_)).code(),
            util::StatusCode::kInvalidArgument);
}

TEST_F(JournalRecoveryTest, DoubleEnableIsRejected) {
  ContainmentService svc(TestOptions());
  ASSERT_TRUE(svc.EnableJournal(Journal(journal_path_)).ok());
  EXPECT_EQ(svc.EnableJournal(Journal(journal_path_)).code(),
            util::StatusCode::kInvalidArgument);
}

TEST_F(JournalRecoveryTest, SaveTieredTruncatesJournalAndRestartUsesBoth) {
  std::vector<std::vector<std::uint64_t>> expected;
  {
    ContainmentService svc(TestOptions());
    ASSERT_TRUE(svc.EnableJournal(Journal(journal_path_)).ok());
    ASSERT_TRUE(svc.AddView("ASK { ?x :p ?y . }").ok());
    ASSERT_TRUE(svc.AddView("ASK { ?x :q ?y . }").ok());
    ASSERT_TRUE(svc.Publish().ok());
    // The image covers sequences 1..1; the journal resets to a bare header.
    ASSERT_TRUE(svc.manager().SaveTiered(snapshot_path_).ok());
    ASSERT_TRUE(svc.AddView("ASK { ?x :r ?y . ?y :q ?z . }").ok());
    ASSERT_TRUE(svc.Publish().ok());  // sequence 2: lives only in the journal
    expected = Answers(&svc);
  }

  ContainmentService recovered(TestOptions());
  ASSERT_TRUE(recovered.manager().RestoreTiered(snapshot_path_).ok());
  ASSERT_TRUE(recovered.EnableJournal(Journal(journal_path_)).ok());
  const index::JournalStats stats = recovered.manager().journal_stats();
  EXPECT_EQ(stats.records_replayed, 1u);  // only the post-checkpoint batch
  EXPECT_EQ(stats.last_sequence, 2u);     // but sequences stay monotone
  EXPECT_EQ(Answers(&recovered), expected);
}

TEST_F(JournalRecoveryTest, PostRecoveryAddsGetFreshIds) {
  std::vector<std::uint64_t> ids;
  {
    ContainmentService svc(TestOptions());
    ASSERT_TRUE(svc.EnableJournal(Journal(journal_path_)).ok());
    for (int i = 0; i < 5; ++i) {
      auto id = svc.AddView("ASK { ?x :p" + std::to_string(i) + " ?y . }");
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
    }
    ASSERT_TRUE(svc.Publish().ok());
  }

  ContainmentService recovered(TestOptions());
  ASSERT_TRUE(recovered.EnableJournal(Journal(journal_path_)).ok());
  auto fresh = recovered.AddView("ASK { ?x :fresh ?y . }");
  ASSERT_TRUE(fresh.ok());
  for (std::uint64_t id : ids) EXPECT_GT(*fresh, id);
}

TEST_F(JournalRecoveryTest, RecoveredServiceKeepsJournalling) {
  // A batch published AFTER recovery must itself be recoverable: the journal
  // chain survives any number of restarts.
  {
    ContainmentService svc(TestOptions());
    ASSERT_TRUE(svc.EnableJournal(Journal(journal_path_)).ok());
    ASSERT_TRUE(svc.AddView("ASK { ?x :p ?y . }").ok());
    ASSERT_TRUE(svc.Publish().ok());
  }
  std::vector<std::vector<std::uint64_t>> expected;
  {
    ContainmentService svc(TestOptions());
    ASSERT_TRUE(svc.EnableJournal(Journal(journal_path_)).ok());
    ASSERT_TRUE(svc.AddView("ASK { ?x :q ?y . }").ok());
    ASSERT_TRUE(svc.Publish().ok());
    EXPECT_EQ(svc.manager().journal_stats().last_sequence, 2u);
    expected = Answers(&svc);
  }
  ContainmentService svc(TestOptions());
  ASSERT_TRUE(svc.EnableJournal(Journal(journal_path_)).ok());
  EXPECT_EQ(svc.manager().journal_stats().records_replayed, 2u);
  EXPECT_EQ(Answers(&svc), expected);
}

TEST_F(JournalRecoveryTest, CompactionCheckpointKeepsPublishesLandingMidBuild) {
  // Checkpoint-on-compaction: the bases hold the state at the capture
  // (watermark 2); two publishes landing during the build stay journal-only,
  // and the rebased journal holds exactly those two records.
  std::vector<std::vector<std::uint64_t>> expected;
  {
    ContainmentService svc(ManualCompaction());
    ASSERT_TRUE(svc.EnableJournal(Journal(journal_path_), snapshot_path_).ok());
    auto kept = svc.AddView("ASK { ?x :p ?y . }");
    ASSERT_TRUE(kept.ok());
    ASSERT_TRUE(svc.AddView("ASK { ?x :q ?y . }").ok());
    ASSERT_TRUE(svc.Publish().ok());  // sequence 1
    auto doomed = svc.AddView("ASK { ?x :r ?y . ?y :q ?z . }");
    ASSERT_TRUE(doomed.ok());
    ASSERT_TRUE(svc.Publish().ok());  // sequence 2: the capture's watermark

    bool fired = false;
    svc.manager().set_compaction_hook([&] {
      if (fired) return;
      fired = true;
      ASSERT_TRUE(svc.AddView("ASK { ?x :r ?y . }").ok());
      ASSERT_TRUE(svc.Publish().ok());  // sequence 3
      ASSERT_TRUE(svc.RemoveView(*doomed).ok());
      ASSERT_TRUE(svc.AddView("ASK { ?x :p ?y . ?x :q ?z . }").ok());
      ASSERT_TRUE(svc.Publish().ok());  // sequence 4
    });
    ASSERT_TRUE(svc.manager().Refreeze().ok());
    ASSERT_TRUE(fired);
    EXPECT_EQ(svc.manager().journal_stats().last_sequence, 4u);
    expected = Answers(&svc);
  }

  std::uint64_t last = 0;
  EXPECT_EQ(JournalSequences(&last), (std::vector<std::uint64_t>{3, 4}));
  EXPECT_EQ(last, 4u);

  ContainmentService recovered(TestOptions());
  Recover(&recovered);
  const index::JournalStats stats = recovered.manager().journal_stats();
  EXPECT_EQ(stats.records_replayed, 2u);
  EXPECT_EQ(stats.last_sequence, 4u);
  EXPECT_EQ(Answers(&recovered), expected);
}

TEST_F(JournalRecoveryTest, CheckpointsConcurrentWithPublishesRecoverExactly) {
  // Checkpoints write their blobs off the writer mutex and rebase the
  // group-commit journal under it while publishes keep landing; whatever
  // interleaving happened, the last checkpoint plus the journal must
  // reproduce the final state.
  const std::vector<std::string> shapes = {
      "ASK { ?x :p ?y . }", "ASK { ?x :q ?y . }",
      "ASK { ?x :r ?y . ?y :q ?z . }", "ASK { ?x :p ?y . ?x :q ?z . }"};
  index::JournalOptions group = Journal(journal_path_);
  group.fsync = index::JournalFsync::kGroup;
  group.group_window_micros = 200;
  std::vector<std::vector<std::uint64_t>> expected;
  {
    ContainmentService svc(ManualCompaction());
    ASSERT_TRUE(svc.EnableJournal(group).ok());
    std::atomic<bool> stop{false};
    std::atomic<int> checkpoints{0};
    std::thread checkpointer([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const util::Status saved = svc.manager().SaveTiered(snapshot_path_);
        EXPECT_TRUE(saved.ok()) << saved.ToString();
        checkpoints.fetch_add(1, std::memory_order_relaxed);
      }
    });
    std::vector<std::uint64_t> live;
    for (std::size_t i = 0; i < 48; ++i) {
      auto id = svc.AddView(shapes[i % shapes.size()]);
      EXPECT_TRUE(id.ok());
      if (id.ok()) live.push_back(*id);
      if (i % 4 == 3 && !live.empty()) {
        EXPECT_TRUE(svc.RemoveView(live.front()).ok());
        live.erase(live.begin());
      }
      EXPECT_TRUE(svc.Publish().ok());
      // Let a checkpoint interleave with every few publishes.
      while (checkpoints.load(std::memory_order_relaxed) < static_cast<int>(i / 4)) {
        std::this_thread::yield();
      }
    }
    stop.store(true, std::memory_order_release);
    checkpointer.join();
    expected = Answers(&svc);
  }

  ContainmentService recovered(TestOptions());
  Recover(&recovered);
  EXPECT_EQ(recovered.manager().journal_stats().last_sequence, 48u);
  EXPECT_EQ(Answers(&recovered), expected);
}

TEST_F(JournalRecoveryTest, JournalBehindCheckpointSkipsCoveredRecords) {
  // The journal as it stood before a checkpoint's rebase (a crash between
  // the manifest commit and the rebase leaves exactly this): every record
  // is covered by the watermark and must be skipped, not replayed over the
  // bases that already hold it.
  std::vector<std::vector<std::uint64_t>> expected;
  std::string unrebased;
  {
    ContainmentService svc(TestOptions());
    ASSERT_TRUE(svc.EnableJournal(Journal(journal_path_)).ok());
    auto removed = svc.AddView("ASK { ?x :p ?y . }");
    ASSERT_TRUE(removed.ok());
    ASSERT_TRUE(svc.AddView("ASK { ?x :q ?y . }").ok());
    ASSERT_TRUE(svc.Publish().ok());
    ASSERT_TRUE(svc.RemoveView(*removed).ok());
    ASSERT_TRUE(svc.Publish().ok());
    unrebased = ReadJournal();
    ASSERT_TRUE(svc.manager().SaveTiered(snapshot_path_).ok());
    expected = Answers(&svc);
  }
  WriteJournal(unrebased);

  ContainmentService recovered(TestOptions());
  Recover(&recovered);
  const index::JournalStats stats = recovered.manager().journal_stats();
  EXPECT_EQ(stats.records_replayed, 0u);
  EXPECT_EQ(stats.last_sequence, 2u);
  EXPECT_EQ(Answers(&recovered), expected);
}

#ifdef RDFC_FAILPOINTS
TEST_F(JournalRecoveryTest, CrashBetweenManifestAndRebaseSkipsByWatermark) {
  std::vector<std::vector<std::uint64_t>> expected;
  {
    ContainmentService svc(TestOptions());
    ASSERT_TRUE(svc.EnableJournal(Journal(journal_path_)).ok());
    auto removed = svc.AddView("ASK { ?x :p ?y . }");
    ASSERT_TRUE(removed.ok());
    ASSERT_TRUE(svc.AddView("ASK { ?x :q ?y . }").ok());
    ASSERT_TRUE(svc.Publish().ok());  // sequence 1
    ASSERT_TRUE(svc.RemoveView(*removed).ok());
    ASSERT_TRUE(svc.Publish().ok());  // sequence 2
    ASSERT_TRUE(util::FailpointRegistry::Instance()
                    .Configure("checkpoint.rebase=1", 3)
                    .ok());
    EXPECT_FALSE(svc.manager().SaveTiered(snapshot_path_).ok());
    util::FailpointRegistry::Instance().Reset();
    ASSERT_TRUE(svc.AddView("ASK { ?x :r ?y . ?y :q ?z . }").ok());
    ASSERT_TRUE(svc.Publish().ok());  // sequence 3: past the watermark
    expected = Answers(&svc);
  }
  std::uint64_t last = 0;
  EXPECT_EQ(JournalSequences(&last), (std::vector<std::uint64_t>{1, 2, 3}));

  ContainmentService recovered(TestOptions());
  Recover(&recovered);
  const index::JournalStats stats = recovered.manager().journal_stats();
  EXPECT_EQ(stats.records_replayed, 1u);
  EXPECT_EQ(stats.last_sequence, 3u);
  EXPECT_EQ(Answers(&recovered), expected);
}
#endif  // RDFC_FAILPOINTS

TEST_F(JournalRecoveryTest, CorruptHeaderAfterCheckpointContinuesPastWatermark) {
  std::vector<std::vector<std::uint64_t>> expected;
  {
    ContainmentService svc(TestOptions());
    ASSERT_TRUE(svc.EnableJournal(Journal(journal_path_)).ok());
    ASSERT_TRUE(svc.AddView("ASK { ?x :p ?y . }").ok());
    ASSERT_TRUE(svc.Publish().ok());
    ASSERT_TRUE(svc.AddView("ASK { ?x :q ?y . }").ok());
    ASSERT_TRUE(svc.Publish().ok());
    ASSERT_TRUE(svc.manager().SaveTiered(snapshot_path_).ok());  // W = 2
  }
  std::string bytes = ReadJournal();
  ASSERT_GE(bytes.size(), 24u);
  bytes[10] = static_cast<char>(bytes[10] ^ 0x5A);  // inside the base field
  WriteJournal(bytes);

  {
    ContainmentService svc(TestOptions());
    Recover(&svc);
    EXPECT_EQ(svc.manager().journal_stats().last_sequence, 2u);
    ASSERT_TRUE(svc.AddView("ASK { ?x :r ?y . ?y :q ?z . }").ok());
    ASSERT_TRUE(svc.Publish().ok());
    EXPECT_EQ(svc.manager().journal_stats().last_sequence, 3u);
    expected = Answers(&svc);
  }

  // The continued sequence is durable: a second restart replays record 3.
  ContainmentService recovered(TestOptions());
  Recover(&recovered);
  const index::JournalStats stats = recovered.manager().journal_stats();
  EXPECT_EQ(stats.records_replayed, 1u);
  EXPECT_EQ(stats.last_sequence, 3u);
  EXPECT_EQ(Answers(&recovered), expected);
}

TEST_F(JournalRecoveryTest, RejectsJournalRebasedPastTheRestoredCheckpoint) {
  // Restoring an older checkpoint than the one that last rebased the journal
  // would silently lose the records in between; it must fail instead.
  const std::string older = snapshot_path_ + ".older";
  {
    ContainmentService svc(TestOptions());
    ASSERT_TRUE(svc.EnableJournal(Journal(journal_path_)).ok());
    ASSERT_TRUE(svc.AddView("ASK { ?x :p ?y . }").ok());
    ASSERT_TRUE(svc.Publish().ok());
    ASSERT_TRUE(svc.manager().SaveTiered(older).ok());  // W = 1
    ASSERT_TRUE(svc.AddView("ASK { ?x :q ?y . }").ok());
    ASSERT_TRUE(svc.Publish().ok());
    ASSERT_TRUE(svc.manager().SaveTiered(snapshot_path_).ok());  // W = 2
    ASSERT_TRUE(svc.AddView("ASK { ?x :r ?y . }").ok());
    ASSERT_TRUE(svc.Publish().ok());
  }
  ContainmentService svc(TestOptions());
  ASSERT_TRUE(svc.manager().RestoreTiered(older).ok());
  EXPECT_EQ(svc.EnableJournal(Journal(journal_path_)).code(),
            util::StatusCode::kInternal);
  std::remove(older.c_str());
  for (int shard = 0; shard < 16; ++shard) {
    std::remove((older + ".base." + std::to_string(shard) + ".1").c_str());
  }
}

TEST_F(JournalRecoveryTest, ReplayRejectsRecordsTheCheckpointAlreadyHolds) {
  // A journal that disagrees with the checkpoint — here one claiming to
  // start before a view the bases already hold — is an error, not a skip.
  std::string early;
  {
    ContainmentService svc(TestOptions());
    ASSERT_TRUE(svc.EnableJournal(Journal(journal_path_)).ok());
    ASSERT_TRUE(svc.AddView("ASK { ?x :p ?y . }").ok());
    ASSERT_TRUE(svc.Publish().ok());
    early = ReadJournal();
  }
  {
    // A second lineage over the same view id: restore nothing, replay the
    // journal, checkpoint it with watermark 0.
    ContainmentService svc(TestOptions());
    ASSERT_TRUE(svc.AddView("ASK { ?x :p ?y . }").ok());
    ASSERT_TRUE(svc.Publish().ok());
    ASSERT_TRUE(svc.manager().SaveTiered(snapshot_path_).ok());
  }
  WriteJournal(early);
  ContainmentService svc(TestOptions());
  ASSERT_TRUE(svc.manager().RestoreTiered(snapshot_path_).ok());
  EXPECT_EQ(svc.EnableJournal(Journal(journal_path_)).code(),
            util::StatusCode::kInternal);
}

TEST_F(JournalRecoveryTest, ReplayRejectsReAddedIds) {
  // Replay must stay strict: an add of an id that the restored bases hold,
  // or that the replay itself added and removed, is a journal that
  // disagrees with the checkpoint, not a view to index again.
  using Kind = index::JournalOp::Kind;
  {
    // The control: removing an added id and adding a fresh one replays.
    AppendRecords({{{Kind::kAdd, 1}}, {{Kind::kRemove, 1}, {Kind::kAdd, 2}}});
    ContainmentService svc(TestOptions());
    ASSERT_TRUE(svc.EnableJournal(Journal(journal_path_)).ok());
    EXPECT_EQ(svc.manager().num_live_views(), 1u);
  }
  CleanFiles();
  {
    // Re-adding an id removed earlier in the same replay.
    AppendRecords({{{Kind::kAdd, 1}}, {{Kind::kRemove, 1}}, {{Kind::kAdd, 1}}});
    ContainmentService svc(TestOptions());
    EXPECT_EQ(svc.EnableJournal(Journal(journal_path_)).code(),
              util::StatusCode::kInternal);
  }
  CleanFiles();
  {
    // Re-adding an id the restored bases hold: the checkpoint covers
    // sequence 1, and record 2 adds its view id again.
    {
      ContainmentService svc(TestOptions());
      ASSERT_TRUE(svc.EnableJournal(Journal(journal_path_)).ok());
      ASSERT_TRUE(svc.AddView("ASK { ?x :p ?y . }").ok());
      ASSERT_TRUE(svc.Publish().ok());
      ASSERT_TRUE(svc.manager().SaveTiered(snapshot_path_).ok());
    }
    AppendRecords({{{Kind::kAdd, 1}}});
    ContainmentService svc(TestOptions());
    ASSERT_TRUE(svc.manager().RestoreTiered(snapshot_path_).ok());
    EXPECT_EQ(svc.EnableJournal(Journal(journal_path_)).code(),
              util::StatusCode::kInternal);
  }
}

}  // namespace
}  // namespace service
}  // namespace rdfc
