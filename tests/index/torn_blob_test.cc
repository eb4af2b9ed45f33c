#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "index/frozen_index.h"
#include "index/mv_index.h"
#include "index/persistence.h"
#include "rdf/dictionary.h"
#include "util/failpoint.h"

// Corruption-resilience contract of the persistence layer (DESIGN.md
// "Resilience"): loading ANY prefix of a valid snapshot — a torn write, a
// partial download, a crashed copy — must come back as a clean error Status.
// Never a crash, never an abort, never a huge speculative allocation, and
// never a partially-constructed index escaping to the caller.

namespace rdfc {
namespace index {
namespace {

query::BgpQuery MakeQuery(rdf::TermDictionary* dict, int tag) {
  query::BgpQuery q;
  q.set_form(query::QueryForm::kAsk);
  const rdf::TermId s = dict->MakeVariable("s" + std::to_string(tag));
  const rdf::TermId o = dict->MakeVariable("o" + std::to_string(tag));
  q.AddPattern(s, dict->MakeIri("urn:torn:p" + std::to_string(tag % 3)), o);
  if (tag % 2 == 0) {
    q.AddPattern(o, dict->MakeIri("urn:torn:q"), dict->MakeIri("urn:torn:c"));
  }
  if (tag % 4 == 0) {
    // A variable predicate, so the side list is exercised too.
    q.AddPattern(s, dict->MakeVariable("vp"), o);
  }
  return q;
}

class TornBlobTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 12; ++i) {
      auto outcome = index_.Insert(MakeQuery(&dict_, i),
                                   static_cast<std::uint64_t>(i));
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    }
    base_ = ::testing::TempDir() + "torn_blob_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
  }

  void TearDown() override {
    std::remove((base_ + ".idx").c_str());
    std::remove((base_ + ".idx.tmp").c_str());
    std::remove((base_ + ".torn").c_str());
  }

  static std::vector<char> ReadAll(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good());
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
  }

  static void WriteAll(const std::string& path, const char* data,
                       std::size_t n) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data, static_cast<std::streamsize>(n));
  }

  rdf::TermDictionary dict_;
  MvIndex index_{&dict_};
  std::string base_;
};

TEST_F(TornBlobTest, EveryPrefixOfFrozenImageFailsCleanly) {
  const std::string path = base_ + ".idx";
  const FrozenMvIndex frozen(index_);
  ASSERT_TRUE(SaveFrozenIndex(frozen, path).ok());
  const std::vector<char> bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), 16u);

  const std::string torn = base_ + ".torn";
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    WriteAll(torn, bytes.data(), len);
    rdf::TermDictionary fresh;
    auto loaded = LoadFrozenIndex(torn, &fresh);
    ASSERT_FALSE(loaded.ok()) << "prefix of " << len << " bytes loaded";
  }
  rdf::TermDictionary fresh;
  auto loaded = LoadFrozenIndex(path, &fresh);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
}

TEST_F(TornBlobTest, SingleByteFlipsAreCaught) {
  const std::string path = base_ + ".idx";
  ASSERT_TRUE(SaveFrozenIndex(FrozenMvIndex(index_), path).ok());
  std::vector<char> bytes = ReadAll(path);

  const std::string torn = base_ + ".torn";
  // Every offset: the FNV checksum catches any single-byte change that the
  // structural validation does not reject first.
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    std::vector<char> mutated = bytes;
    mutated[at] = static_cast<char>(mutated[at] ^ 0x5A);
    WriteAll(torn, mutated.data(), mutated.size());
    rdf::TermDictionary fresh;
    auto loaded = LoadFrozenIndex(torn, &fresh);
    ASSERT_FALSE(loaded.ok()) << "flip at offset " << at << " loaded";
  }
}

#ifdef RDFC_FAILPOINTS

TEST_F(TornBlobTest, CrashDuringSaveLeavesPreviousSnapshotLoadable) {
  const std::string path = base_ + ".idx";
  ASSERT_TRUE(SaveFrozenIndex(FrozenMvIndex(index_), path).ok());
  const std::vector<char> before = ReadAll(path);

  auto& registry = util::FailpointRegistry::Instance();
  ASSERT_TRUE(registry.Configure("persistence.crash=1", 11).ok());
  auto outcome = index_.Insert(MakeQuery(&dict_, 99), 99);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(SaveFrozenIndex(FrozenMvIndex(index_), path).ok());
  registry.Reset();

  // Byte-for-byte identical to the last committed save, and loadable.
  EXPECT_EQ(ReadAll(path), before);
  rdf::TermDictionary fresh;
  auto loaded = LoadFrozenIndex(path, &fresh);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // With the fault gone, the pending state commits and supersedes it.
  ASSERT_TRUE(SaveFrozenIndex(FrozenMvIndex(index_), path).ok());
  rdf::TermDictionary fresh2;
  auto reloaded = LoadFrozenIndex(path, &fresh2);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ((*reloaded)->num_live_entries(), index_.num_live_entries());
}

#endif  // RDFC_FAILPOINTS

}  // namespace
}  // namespace index
}  // namespace rdfc
