#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "index/journal.h"
#include "query/bgp_query.h"
#include "rdf/dictionary.h"
#include "util/status.h"

// Corruption contract of the write-ahead journal (DESIGN.md "Durability"):
// opening ANY byte prefix of a valid journal, and any single-byte corruption
// of one, must replay a clean prefix of the original batches — never crash,
// never abort, never replay a record that was not appended (over-reporting),
// and never replay a record differently from how it was appended.  Exhausted
// exhaustively: every prefix length and every byte position, over a fresh
// journal (header base 0) and over a rebased one (header base > 0).

namespace rdfc {
namespace index {
namespace {

constexpr std::uint64_t kBatches = 6;

query::BgpQuery MakeView(rdf::TermDictionary* dict, int tag) {
  query::BgpQuery q;
  q.set_form(query::QueryForm::kAsk);
  const rdf::TermId s = dict->MakeVariable("s" + std::to_string(tag));
  const rdf::TermId o = dict->MakeVariable("o" + std::to_string(tag));
  q.AddPattern(s, dict->MakeIri("urn:wal:p" + std::to_string(tag % 4)), o);
  if (tag % 2 == 0) {
    q.AddPattern(o, dict->MakeIri("urn:wal:q"),
                 dict->MakeIri("urn:wal:c" + std::to_string(tag % 3)));
  }
  return q;
}

std::string TermSig(const rdf::TermDictionary& dict, rdf::TermId id) {
  return std::to_string(static_cast<int>(dict.kind(id))) + ":" +
         std::string(dict.lexical(id));
}

/// Dictionary-independent fingerprint of a batch: sequence, version, and
/// every op down to the lexical triples.  Two batches with equal signatures
/// carry the same logical mutation regardless of which dictionary interned
/// them — exactly the equality replay must preserve.
std::string BatchSig(const JournalBatch& batch,
                     const rdf::TermDictionary& dict) {
  std::string sig = "seq=" + std::to_string(batch.sequence) +
                    " ver=" + std::to_string(batch.version);
  for (const JournalOp& op : batch.ops) {
    sig += op.kind == JournalOp::Kind::kAdd ? " +" : " -";
    sig += std::to_string(op.view_id);
    if (op.kind == JournalOp::Kind::kAdd) {
      for (const rdf::Triple& t : op.view.patterns()) {
        sig += "(" + TermSig(dict, t.s) + "," + TermSig(dict, t.p) + "," +
               TermSig(dict, t.o) + ")";
      }
    }
  }
  return sig;
}

class TornJournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "torn_journal_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".wal";
    mutated_path_ = path_ + ".mutated";
    std::remove(path_.c_str());
    std::remove(mutated_path_.c_str());

    rdf::TermDictionary dict;
    auto journal = WriteAheadJournal::Open(Options(path_), &dict, NoReplay());
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    int next_id = 1;
    for (std::uint64_t seq = 1; seq <= kBatches; ++seq) {
      JournalBatch batch;
      batch.sequence = seq;
      batch.version = seq + 10;
      const int adds = 1 + static_cast<int>(seq % 2);
      for (int a = 0; a < adds; ++a) {
        JournalOp op;
        op.kind = JournalOp::Kind::kAdd;
        op.view_id = static_cast<std::uint64_t>(next_id);
        op.view = MakeView(&dict, next_id);
        ++next_id;
        batch.ops.push_back(std::move(op));
      }
      if (seq % 3 == 0) {
        JournalOp op;
        op.kind = JournalOp::Kind::kRemove;
        op.view_id = static_cast<std::uint64_t>(next_id / 2);
        batch.ops.push_back(std::move(op));
      }
      ASSERT_TRUE(journal.value()->Append(batch, dict).ok());
      expected_.push_back(BatchSig(batch, dict));
    }
    journal.value().reset();  // close

    std::ifstream in(path_, std::ios::binary);
    ASSERT_TRUE(in.good());
    bytes_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    ASSERT_GT(bytes_.size(), 24u);  // header + records
  }

  void TearDown() override {
    std::remove(path_.c_str());
    std::remove(mutated_path_.c_str());
    std::remove((mutated_path_ + ".tmp").c_str());
  }

  static JournalOptions Options(const std::string& path) {
    JournalOptions options;
    options.path = path;
    options.fsync = JournalFsync::kOff;  // speed: kernel durability suffices
    return options;
  }

  static WriteAheadJournal::ReplayFn NoReplay() {
    return [](const JournalBatch&) { return util::Status::OK(); };
  }

  void WriteMutated(const std::string& content) {
    std::ofstream out(mutated_path_, std::ios::binary | std::ios::trunc);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
    ASSERT_TRUE(out.good());
  }

  /// Opens `mutated_path_` and returns the replayed batch signatures.  The
  /// open itself must ALWAYS succeed — corruption is recovered, not
  /// reported as an error.
  std::vector<std::string> ReplayMutated(std::uint64_t* truncated_bytes) {
    rdf::TermDictionary dict;
    std::vector<std::string> sigs;
    auto journal = WriteAheadJournal::Open(
        Options(mutated_path_), &dict,
        [&sigs, &dict](const JournalBatch& batch) {
          sigs.push_back(BatchSig(batch, dict));
          return util::Status::OK();
        });
    EXPECT_TRUE(journal.ok()) << journal.status().ToString();
    if (journal.ok() && truncated_bytes != nullptr) {
      *truncated_bytes = journal.value()->stats().truncated_bytes;
    }
    return sigs;
  }

  /// The prefix property: whatever replayed must be exactly the first
  /// sigs.size() batches of `expected`, in order.
  static void ExpectCleanPrefix(const std::vector<std::string>& sigs,
                                const std::vector<std::string>& expected,
                                const std::string& what) {
    ASSERT_LE(sigs.size(), expected.size()) << what << ": over-reported";
    for (std::size_t i = 0; i < sigs.size(); ++i) {
      ASSERT_EQ(sigs[i], expected[i]) << what << ": batch " << i << " mutated";
    }
  }

  /// The journal rebased through sequence `watermark` (header base =
  /// watermark, records watermark+1.. kept), as a checkpoint leaves it.
  std::string RebasedBytes(std::uint64_t watermark) {
    WriteMutated(bytes_);
    {
      rdf::TermDictionary dict;
      auto journal =
          WriteAheadJournal::Open(Options(mutated_path_), &dict, NoReplay());
      EXPECT_TRUE(journal.ok());
      if (!journal.ok()) return "";
      EXPECT_TRUE(journal.value()->Rebase(watermark).ok());
    }
    std::ifstream in(mutated_path_, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  /// Replayed sequence numbers of `mutated_path_` opened at `watermark`.
  std::vector<std::uint64_t> ReplayedSequences(std::uint64_t watermark,
                                               std::uint64_t* last) {
    rdf::TermDictionary dict;
    std::vector<std::uint64_t> sequences;
    auto journal = WriteAheadJournal::Open(
        Options(mutated_path_), &dict,
        [&sequences](const JournalBatch& b) {
          sequences.push_back(b.sequence);
          return util::Status::OK();
        },
        watermark);
    EXPECT_TRUE(journal.ok()) << journal.status().ToString();
    if (journal.ok() && last != nullptr) {
      *last = journal.value()->stats().last_sequence;
    }
    return sequences;
  }

  std::string path_;
  std::string mutated_path_;
  std::string bytes_;
  std::vector<std::string> expected_;
};

TEST_F(TornJournalTest, IntactJournalReplaysEverything) {
  WriteMutated(bytes_);
  std::uint64_t truncated = 0;
  const std::vector<std::string> sigs = ReplayMutated(&truncated);
  EXPECT_EQ(sigs.size(), expected_.size());
  EXPECT_EQ(truncated, 0u);
  ExpectCleanPrefix(sigs, expected_, "intact");
}

TEST_F(TornJournalTest, EveryPrefixReplaysCleanPrefix) {
  for (std::size_t len = 0; len <= bytes_.size(); ++len) {
    WriteMutated(bytes_.substr(0, len));
    const std::vector<std::string> sigs = ReplayMutated(nullptr);
    ExpectCleanPrefix(sigs, expected_, "prefix len " + std::to_string(len));
    if (HasFatalFailure()) return;
  }
}

TEST_F(TornJournalTest, EverySingleByteFlipReplaysCleanPrefix) {
  for (std::size_t i = 0; i < bytes_.size(); ++i) {
    std::string corrupt = bytes_;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x5A);
    WriteMutated(corrupt);
    const std::vector<std::string> sigs = ReplayMutated(nullptr);
    ExpectCleanPrefix(sigs, expected_, "flip at byte " + std::to_string(i));
    if (HasFatalFailure()) return;
  }
}

TEST_F(TornJournalTest, TornTailIsTruncatedAndAppendContinues) {
  // Tear the final record mid-payload: recovery must drop exactly that
  // record, physically truncate the file, and leave the journal appendable
  // at the next sequence.
  WriteMutated(bytes_.substr(0, bytes_.size() - 3));
  rdf::TermDictionary dict;
  std::size_t replayed = 0;
  auto journal = WriteAheadJournal::Open(
      Options(mutated_path_), &dict,
      [&replayed](const JournalBatch&) {
        ++replayed;
        return util::Status::OK();
      });
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_EQ(replayed, kBatches - 1);
  EXPECT_GT(journal.value()->stats().truncated_bytes, 0u);
  EXPECT_EQ(journal.value()->next_sequence(), kBatches);
  EXPECT_FALSE(journal.value()->stats().degraded);

  JournalBatch batch;
  batch.sequence = journal.value()->next_sequence();
  batch.version = 99;
  JournalOp op;
  op.kind = JournalOp::Kind::kAdd;
  op.view_id = 1000;
  op.view = MakeView(&dict, 1000);
  batch.ops.push_back(std::move(op));
  ASSERT_TRUE(journal.value()->Append(batch, dict).ok());
  journal.value().reset();

  // A fresh open sees the surviving prefix plus the new record, all intact.
  rdf::TermDictionary dict2;
  std::vector<std::uint64_t> sequences;
  auto reopened = WriteAheadJournal::Open(
      Options(mutated_path_), &dict2,
      [&sequences](const JournalBatch& b) {
        sequences.push_back(b.sequence);
        return util::Status::OK();
      });
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(sequences.size(), kBatches);
  EXPECT_EQ(sequences.back(), kBatches);
  EXPECT_EQ(reopened.value()->stats().truncated_bytes, 0u);
}

TEST_F(TornJournalTest, TruncateKeepsSequencesMonotone) {
  // A checkpoint covering sequences 1..3 truncates the journal through 3 by
  // rebasing it: the later records stay byte-for-byte, the next append
  // continues the old sequence, and a reopen replays exactly the kept tail
  // plus the append.
  constexpr std::uint64_t kWatermark = 3;
  WriteMutated(bytes_);
  rdf::TermDictionary dict;
  auto journal =
      WriteAheadJournal::Open(Options(mutated_path_), &dict, NoReplay());
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE(journal.value()->Rebase(kWatermark).ok());
  EXPECT_EQ(journal.value()->next_sequence(), kBatches + 1);
  JournalBatch batch;
  batch.sequence = kBatches + 1;
  batch.version = 100;
  ASSERT_TRUE(journal.value()->Append(batch, dict).ok());
  journal.value().reset();

  rdf::TermDictionary dict2;
  std::vector<std::string> sigs;
  auto reopened = WriteAheadJournal::Open(
      Options(mutated_path_), &dict2,
      [&sigs, &dict2](const JournalBatch& b) {
        sigs.push_back(BatchSig(b, dict2));
        return util::Status::OK();
      });
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(sigs.size(), kBatches - kWatermark + 1);
  for (std::uint64_t i = 0; i < kBatches - kWatermark; ++i) {
    EXPECT_EQ(sigs[i], expected_[kWatermark + i]) << "kept record " << i;
  }
  EXPECT_EQ(sigs.back(), BatchSig(batch, dict));
  EXPECT_EQ(reopened.value()->stats().last_sequence, kBatches + 1);
  EXPECT_EQ(reopened.value()->stats().truncated_bytes, 0u);

  // Rebasing at or below the header base drops nothing.
  ASSERT_TRUE(reopened.value()->Rebase(kWatermark).ok());
  reopened.value().reset();
  std::uint64_t last = 0;
  EXPECT_EQ(ReplayedSequences(0, &last).size(), kBatches - kWatermark + 1);
  EXPECT_EQ(last, kBatches + 1);
}

TEST_F(TornJournalTest, RebasePastTheEndMovesTheNextSequence) {
  WriteMutated(bytes_);
  {
    rdf::TermDictionary dict;
    auto journal =
        WriteAheadJournal::Open(Options(mutated_path_), &dict, NoReplay());
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal.value()->Rebase(kBatches + 4).ok());
    EXPECT_EQ(journal.value()->next_sequence(), kBatches + 5);
  }
  std::uint64_t last = 0;
  EXPECT_TRUE(ReplayedSequences(0, &last).empty());
  EXPECT_EQ(last, kBatches + 4);
}

TEST_F(TornJournalTest, OpenSkipsRecordsAtOrBelowTheWatermark) {
  // Records the checkpoint covers are checksummed but never decoded: they
  // do not replay, and their terms are not interned.
  WriteMutated(bytes_);
  rdf::TermDictionary dict;
  std::vector<std::uint64_t> sequences;
  auto journal = WriteAheadJournal::Open(
      Options(mutated_path_), &dict,
      [&sequences](const JournalBatch& b) {
        sequences.push_back(b.sequence);
        return util::Status::OK();
      },
      /*watermark=*/4);
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ(sequences, (std::vector<std::uint64_t>{5, 6}));
  EXPECT_EQ(journal.value()->stats().records_replayed, 2u);
  EXPECT_EQ(journal.value()->next_sequence(), kBatches + 1);
  // View 1 rides in record 1; its variables were never interned.
  EXPECT_EQ(dict.Lookup(rdf::TermKind::kVariable, "s1"), rdf::kNullTerm);
  EXPECT_NE(dict.Lookup(rdf::TermKind::kVariable, "s9"), rdf::kNullTerm);
}

TEST_F(TornJournalTest, OpenRebasesAJournalThatEndsBelowTheWatermark) {
  // A journal behind its checkpoint (here: the checkpoint covers more than
  // was ever appended) continues after the watermark, durably.
  WriteMutated(bytes_);
  std::uint64_t last = 0;
  EXPECT_TRUE(ReplayedSequences(kBatches + 3, &last).empty());
  EXPECT_EQ(last, kBatches + 3);
  EXPECT_TRUE(ReplayedSequences(0, &last).empty());
  EXPECT_EQ(last, kBatches + 3);
}

TEST_F(TornJournalTest, EveryPrefixOfRebasedJournalReplaysCleanPrefix) {
  const std::string rebased = RebasedBytes(2);
  ASSERT_GT(rebased.size(), 24u);
  const std::vector<std::string> kept(expected_.begin() + 2, expected_.end());
  for (std::size_t len = 0; len <= rebased.size(); ++len) {
    WriteMutated(rebased.substr(0, len));
    const std::vector<std::string> sigs = ReplayMutated(nullptr);
    ExpectCleanPrefix(sigs, kept, "rebased prefix len " + std::to_string(len));
    if (HasFatalFailure()) return;
    if (len == rebased.size()) {
      EXPECT_EQ(sigs.size(), kept.size());
    }
  }
}

TEST_F(TornJournalTest, EverySingleByteFlipOfRebasedJournalReplaysCleanPrefix) {
  const std::string rebased = RebasedBytes(2);
  ASSERT_GT(rebased.size(), 24u);
  const std::vector<std::string> kept(expected_.begin() + 2, expected_.end());
  for (std::size_t i = 0; i < rebased.size(); ++i) {
    std::string corrupt = rebased;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x5A);
    WriteMutated(corrupt);
    const std::vector<std::string> sigs = ReplayMutated(nullptr);
    ExpectCleanPrefix(sigs, kept, "rebased flip at byte " + std::to_string(i));
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace index
}  // namespace rdfc
