#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "index/frozen_index.h"
#include "index/journal.h"
#include "index/mv_index.h"
#include "index/persistence.h"
#include "net/wire.h"
#include "query/analysis.h"
#include "rdf/dictionary.h"
#include "util/bytes.h"
#include "workload/workload.h"

// Byte-level pins of every binary format (docs/FORMATS.md): the size and
// FNV-1a-64 digest of a fixed frozen image, checkpoint manifest, journal and
// wire frame pair, plus the anchor signatures that route views to shards.
// The values were recorded from the codec this one replaced; a change here
// means files or frames written by older builds no longer read the same.

namespace rdfc {
namespace {

struct Pin {
  std::size_t size;
  std::uint64_t digest;
};

void ExpectPinned(const std::string& bytes, Pin pin) {
  EXPECT_EQ(bytes.size(), pin.size);
  EXPECT_EQ(util::Fnv1a(bytes), pin.digest)
      << "digest 0x" << std::hex << util::Fnv1a(bytes);
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "format_golden_" + name;
}

query::BgpQuery MakeView(rdf::TermDictionary* dict, int tag) {
  query::BgpQuery q;
  q.set_form(query::QueryForm::kAsk);
  const rdf::TermId s = dict->MakeVariable("s" + std::to_string(tag));
  const rdf::TermId o = dict->MakeVariable("o" + std::to_string(tag));
  q.AddPattern(s, dict->MakeIri("urn:gold:p" + std::to_string(tag % 3)), o);
  if (tag % 2 == 0) {
    q.AddPattern(o, dict->MakeIri("urn:gold:q"), dict->MakeLiteral("\"c\""));
  }
  if (tag % 4 == 0) q.AddPattern(s, dict->MakeVariable("vp"), o);
  return q;
}

/// Eight views with two removed, so dead slots are part of the image.
std::unique_ptr<index::FrozenMvIndex> MakeFrozen(rdf::TermDictionary* dict) {
  index::MvIndex index(dict);
  std::vector<std::uint32_t> ids;
  for (int i = 0; i < 8; ++i) {
    auto outcome = index.Insert(MakeView(dict, i), 100 + i);
    EXPECT_TRUE(outcome.ok());
    if (outcome.ok() && outcome->was_new) ids.push_back(outcome->stored_id);
  }
  EXPECT_TRUE(index.Remove(ids[1]).ok());
  EXPECT_TRUE(index.Remove(ids[3]).ok());
  return std::make_unique<index::FrozenMvIndex>(index);
}

TEST(FormatGoldenTest, FrozenImageBytes) {
  rdf::TermDictionary dict;
  const auto frozen = MakeFrozen(&dict);
  const std::string path = TempPath("frozen.idx");
  ASSERT_TRUE(index::SaveFrozenIndex(*frozen, path).ok());
  ExpectPinned(ReadAll(path), {902, 0x8b234364150304f0ull});
  std::remove(path.c_str());
}

TEST(FormatGoldenTest, TieredManifestBytes) {
  rdf::TermDictionary dict;
  const auto frozen = MakeFrozen(&dict);
  const std::string path = TempPath("tiered.ckpt");
  const std::vector<index::TieredShardRef> shards = {
      {frozen.get(), 2}, {nullptr, 0}, {frozen.get(), 5}};
  ASSERT_TRUE(index::SaveTieredIndex(shards, 42, path, {}).ok());
  ExpectPinned(ReadAll(path), {55, 0x614bdefe769c5de7ull});
  // The base blobs are plain frozen images of the same index.
  EXPECT_EQ(ReadAll(path + ".base.0.2"), ReadAll(path + ".base.2.5"));
  std::remove(path.c_str());
  std::remove((path + ".base.0.2").c_str());
  std::remove((path + ".base.2.5").c_str());
}

TEST(FormatGoldenTest, JournalBytesAfterThreeAppends) {
  const std::string path = TempPath("journal.wal");
  std::remove(path.c_str());
  {
    rdf::TermDictionary dict;
    index::JournalOptions options;
    options.path = path;
    options.fsync = index::JournalFsync::kOff;
    auto journal = index::WriteAheadJournal::Open(
        options, &dict, [](const index::JournalBatch&) {
          return util::Status::OK();
        });
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    for (std::uint64_t seq = 1; seq <= 3; ++seq) {
      index::JournalBatch batch;
      batch.sequence = seq;
      batch.version = 10 * seq;
      index::JournalOp op;
      if (seq == 2) {
        op.kind = index::JournalOp::Kind::kRemove;
        op.view_id = 7;
      } else {
        op.view_id = 6 + seq;
        op.view = MakeView(&dict, static_cast<int>(seq) * 2);
      }
      batch.ops.push_back(std::move(op));
      ASSERT_TRUE(journal.value()->Append(batch, dict).ok());
    }
  }
  ExpectPinned(ReadAll(path), {275, 0xc08824ec61c6e826ull});
  std::remove(path.c_str());
}

TEST(FormatGoldenTest, WireFrameBytes) {
  net::WireRequest request;
  request.opcode = net::Opcode::kProbe;
  request.id = 0x1122334455667788ull;
  request.deadline_ms = 250;
  request.simulated_io_micros = 77;
  request.query = "ASK { ?x <urn:p> ?y . }";
  std::string frame;
  net::EncodeRequest(request, &frame);
  ExpectPinned(frame, {49, 0x42b01df13121749dull});

  net::WireResponse response;
  response.status = net::WireStatus::kQuarantined;
  response.degraded = true;
  response.quarantined = true;
  response.id = 99;
  response.snapshot_version = 7;
  response.candidates = 12;
  response.np_checks = 4;
  response.server_micros = 1234.5;
  response.containing_views = {3, 5, 8};
  response.unverified_views = {11};
  response.payload = "detail";
  frame.clear();
  net::EncodeResponse(response, &frame);
  ExpectPinned(frame, {89, 0xc725ff65c174357bull});
}

// Shard routing is AnchorSignature % N and is baked into every checkpoint's
// bases, so the signatures themselves are part of the durable format.
TEST(FormatGoldenTest, AnchorSignaturesOfFixedQueries) {
  rdf::TermDictionary dict;
  auto lubm = workload::LubmQueries(&dict);
  ASSERT_TRUE(lubm.ok());
  const std::vector<query::BgpQuery> watdiv =
      workload::GenerateWatdiv(&dict, 3, 7);
  const std::uint64_t expected_lubm[] = {
      0x6545b149d2f63e28ull, 0xfa676da0b8821901ull, 0x0ba1c33b65ef84bfull,
      0x15f5cfca923f2880ull};
  const std::uint64_t expected_watdiv[] = {
      0xaa229ef38dbba1faull, 0x20bb8b6824a7dedbull, 0x1d74c6eb6ee51a0aull};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(query::AnchorSignature(lubm.value()[i], dict), expected_lubm[i])
        << "LUBM Q" << i + 1 << " = 0x" << std::hex
        << query::AnchorSignature(lubm.value()[i], dict);
  }
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(query::AnchorSignature(watdiv[i], dict), expected_watdiv[i])
        << "WatDiv #" << i << " = 0x" << std::hex
        << query::AnchorSignature(watdiv[i], dict);
  }
}

}  // namespace
}  // namespace rdfc
