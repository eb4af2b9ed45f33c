#include "index/persistence.h"

#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "index/validate.h"
#include "util/failpoint.h"

namespace rdfc {
namespace index {

namespace {

constexpr char kFrozenMagic[8] = {'R', 'D', 'F', 'C', 'F', 'Z', '0', '1'};
constexpr char kTieredMagic[8] = {'R', 'D', 'F', 'C', 'T', 'I', '0', '3'};

/// Manifest shard counts beyond this are implausible (mirrors
/// service::IndexSnapshot::kMaxShards without a service-layer include).
constexpr std::uint32_t kMaxTieredShards = 64;

std::string TieredBasePath(const std::string& path, std::size_t shard,
                           std::uint64_t generation) {
  return path + ".base." + std::to_string(shard) + "." +
         std::to_string(generation);
}

/// FNV-1a over the payload, to catch truncation/corruption on load.
class Checksum {
 public:
  void Update(const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001B3ull;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

class Writer {
 public:
  explicit Writer(std::FILE* file) : file_(file) {}

  void U8(std::uint8_t v) { Raw(&v, 1); }
  void U32(std::uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(std::uint64_t v) { Raw(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U32(static_cast<std::uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  void Raw(const void* data, std::size_t n) {
    checksum_.Update(data, n);
    ok_ = ok_ && std::fwrite(data, 1, n, file_) == n;
  }
  /// Writes the checksum itself (not folded into the running hash).
  void Finish() {
    const std::uint64_t sum = checksum_.value();
    ok_ = ok_ && std::fwrite(&sum, 1, sizeof(sum), file_) == sizeof(sum);
  }
  bool ok() const { return ok_; }

 private:
  std::FILE* file_;
  Checksum checksum_;
  bool ok_ = true;
};

class Reader {
 public:
  explicit Reader(std::FILE* file) : file_(file) {
    // Learn the file size up front: length-prefixed fields from a torn or
    // corrupt blob are bounded by `remaining()` before any allocation, so a
    // truncated file can never drive a multi-gigabyte resize.
    if (std::fseek(file_, 0, SEEK_END) == 0) {
      const long size = std::ftell(file_);
      remaining_ = size > 0 ? static_cast<std::uint64_t>(size) : 0;
    }
    std::rewind(file_);
  }

  bool U8(std::uint8_t* v) { return Raw(v, 1); }
  bool U32(std::uint32_t* v) { return Raw(v, sizeof(*v)); }
  bool U64(std::uint64_t* v) { return Raw(v, sizeof(*v)); }
  bool Str(std::string* s) {
    std::uint32_t n = 0;
    if (!U32(&n)) return false;
    if (n > remaining_) return false;
    s->resize(n);
    return n == 0 || Raw(s->data(), n);
  }
  bool Raw(void* data, std::size_t n) {
    if (n > remaining_) return false;
    if (std::fread(data, 1, n, file_) != n) return false;
    remaining_ -= n;
    checksum_.Update(data, n);
    return true;
  }
  bool VerifyChecksum() {
    const std::uint64_t expected = checksum_.value();
    std::uint64_t stored = 0;
    if (std::fread(&stored, 1, sizeof(stored), file_) != sizeof(stored)) {
      return false;
    }
    return stored == expected;
  }

  /// Bytes left in the file — the hard ceiling for any count or length a
  /// well-formed remainder could still encode.
  std::uint64_t remaining() const { return remaining_; }

 private:
  std::FILE* file_;
  Checksum checksum_;
  std::uint64_t remaining_ = 0;
};

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/// Crash-safe writer: streams into `path + ".tmp"`, and Commit() makes the
/// switch durable — flush, fsync, then an atomic rename over the target.  A
/// failure (or a real crash) at any point leaves whatever was previously at
/// `path` byte-for-byte intact; an uncommitted temp file is removed by the
/// destructor.  Failpoint sites cover each I/O stage so rdfc_fuzz can
/// exercise every abort path deterministically.
class AtomicFileWriter {
 public:
  explicit AtomicFileWriter(std::string path)
      : path_(std::move(path)), tmp_path_(path_ + ".tmp") {}
  ~AtomicFileWriter() {
    if (file_ != nullptr) std::fclose(file_);
    if (opened_ && !committed_) std::remove(tmp_path_.c_str());
  }

  [[nodiscard]] util::Status Open() {
    if (RDFC_FAILPOINT("persistence.open")) {
      return util::Status::Internal("failpoint persistence.open");
    }
    file_ = std::fopen(tmp_path_.c_str(), "wb");
    if (file_ == nullptr) {
      return util::Status::InvalidArgument("cannot open for writing: " +
                                           tmp_path_);
    }
    opened_ = true;
    return util::Status::OK();
  }

  std::FILE* file() { return file_; }

  [[nodiscard]] util::Status Commit() {
    if (RDFC_FAILPOINT("persistence.write")) {
      return util::Status::Internal("failpoint persistence.write");
    }
    if (std::fflush(file_) != 0) {
      return util::Status::Internal("flush failed: " + tmp_path_);
    }
#if defined(__unix__) || defined(__APPLE__)
    if (RDFC_FAILPOINT("persistence.fsync") || fsync(fileno(file_)) != 0) {
      return util::Status::Internal("fsync failed: " + tmp_path_);
    }
#endif
    if (std::fclose(file_) != 0) {
      file_ = nullptr;
      return util::Status::Internal("close failed: " + tmp_path_);
    }
    file_ = nullptr;
    if (RDFC_FAILPOINT("persistence.crash")) {
      // Simulated crash between durability and the rename: the temp file is
      // left behind exactly as a killed process would leave it, and the
      // previous snapshot at `path` must remain loadable and checksum-clean.
      opened_ = false;
      return util::Status::Internal("failpoint persistence.crash");
    }
    if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
      return util::Status::Internal("rename failed: " + path_);
    }
    committed_ = true;
#if defined(__unix__) || defined(__APPLE__)
    // Best-effort directory fsync so the rename itself survives power loss.
    const std::size_t slash = path_.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path_.substr(0, slash);
    const int dir_fd = open(dir.c_str(), O_RDONLY);
    if (dir_fd >= 0) {
      (void)fsync(dir_fd);
      (void)close(dir_fd);
    }
#endif
    return util::Status::OK();
  }

 private:
  std::string path_;
  std::string tmp_path_;
  std::FILE* file_ = nullptr;
  bool opened_ = false;
  bool committed_ = false;
};

/// Dictionary section of a frozen image: term count, then each term in
/// id order (slot 0 is the reserved null term; skipped).
void WriteDictionary(Writer* w, const rdf::TermDictionary& dict) {
  w->U32(static_cast<std::uint32_t>(dict.size()));
  for (rdf::TermId id = 1; id < dict.size(); ++id) {
    w->U8(static_cast<std::uint8_t>(dict.kind(id)));
    w->Str(dict.lexical(id));
  }
}

/// Reads a dictionary section, re-interning into `dict`.  On success `remap`
/// maps old id -> new id and its size() is the on-disk dictionary size (the
/// range bound for every term id that follows).  With a fresh dictionary the
/// mapping is the identity, but re-interning keeps loads into pre-populated
/// dictionaries correct.
util::Status ReadDictionary(Reader* r, rdf::TermDictionary* dict,
                            std::vector<rdf::TermId>* remap) {
  std::uint32_t dict_size = 0;
  if (!r->U32(&dict_size)) return util::Status::ParseError("truncated header");
  // Every dictionary entry takes at least 5 bytes (kind + length prefix), so
  // a count the remaining file could not hold is corruption — reject before
  // sizing the remap table by it.
  if (dict_size > 1 &&
      (static_cast<std::uint64_t>(dict_size) - 1) * 5 > r->remaining()) {
    return util::Status::ParseError("implausible dictionary size");
  }
  remap->assign(dict_size, rdf::kNullTerm);
  for (std::uint32_t id = 1; id < dict_size; ++id) {
    std::uint8_t kind = 0;
    std::string lexical;
    if (!r->U8(&kind) || !r->Str(&lexical) || kind > 3) {
      return util::Status::ParseError("truncated dictionary entry");
    }
    (*remap)[id] = dict->Intern(static_cast<rdf::TermKind>(kind), lexical);
  }
  return util::Status::OK();
}

/// One live entry of a frozen image: the canonical patterns followed by the
/// external ids.
void WriteEntryBody(Writer* w, const containment::PreparedStored& stored,
                    const std::vector<std::uint64_t>& externals) {
  w->U32(static_cast<std::uint32_t>(stored.canonical.size()));
  for (const rdf::Triple& t : stored.canonical.patterns()) {
    w->U32(t.s);
    w->U32(t.p);
    w->U32(t.o);
  }
  w->U32(static_cast<std::uint32_t>(externals.size()));
  for (std::uint64_t ext : externals) w->U64(ext);
}

/// Reads one entry's canonical patterns (remapped) into `q`.
util::Status ReadEntryQuery(Reader* r, const std::vector<rdf::TermId>& remap,
                            query::BgpQuery* q) {
  std::uint32_t num_triples = 0;
  if (!r->U32(&num_triples)) return util::Status::ParseError("truncated entry");
  q->set_form(query::QueryForm::kAsk);
  const std::uint32_t dict_size = static_cast<std::uint32_t>(remap.size());
  for (std::uint32_t i = 0; i < num_triples; ++i) {
    std::uint32_t s = 0, p = 0, o = 0;
    if (!r->U32(&s) || !r->U32(&p) || !r->U32(&o)) {
      return util::Status::ParseError("truncated triple");
    }
    if (s >= dict_size || p >= dict_size || o >= dict_size) {
      return util::Status::ParseError("term id out of range");
    }
    q->AddPattern(remap[s], remap[p], remap[o]);
  }
  return util::Status::OK();
}

/// On-disk token: 12 bytes with the two padding bytes of query::Token pinned
/// to zero, so file contents never depend on what the compiler left in the
/// in-memory padding (the checksum would otherwise be non-deterministic).
constexpr std::size_t kPackedTokenBytes = 12;

void AppendU32(std::vector<unsigned char>* blob, std::uint32_t v) {
  const auto* b = reinterpret_cast<const unsigned char*>(&v);
  blob->insert(blob->end(), b, b + sizeof(v));
}

void AppendToken(std::vector<unsigned char>* blob, const query::Token& t) {
  unsigned char b[kPackedTokenBytes] = {0};
  b[0] = static_cast<unsigned char>(t.type);
  b[1] = t.inverse ? 1 : 0;
  std::memcpy(b + 4, &t.pred, sizeof(t.pred));
  std::memcpy(b + 8, &t.term, sizeof(t.term));
  blob->insert(blob->end(), b, b + kPackedTokenBytes);
}

}  // namespace

util::Status SaveFrozenIndex(const FrozenMvIndex& frozen,
                             const std::string& path) {
  AtomicFileWriter out(path);
  RDFC_RETURN_NOT_OK(out.Open());
  Writer w(out.file());
  w.Raw(kFrozenMagic, sizeof(kFrozenMagic));
  WriteDictionary(&w, frozen.dict());

  // The tree structure as one relocatable blob: count header + the five flat
  // arrays back to back, every cross-reference an array index.
  const auto& nodes = frozen.nodes();
  const auto& first = frozen.edge_first_tokens();
  const auto& offsets = frozen.edge_label_offsets();
  const auto& lens = frozen.edge_label_lens();
  const auto& pool = frozen.label_pool();
  const auto& stored = frozen.stored_ids();
  std::vector<unsigned char> blob;
  blob.reserve(16 + nodes.size() * sizeof(FrozenMvIndex::Node) +
               (first.size() + pool.size()) * kPackedTokenBytes +
               (offsets.size() + lens.size() + stored.size()) *
                   sizeof(std::uint32_t));
  AppendU32(&blob, static_cast<std::uint32_t>(nodes.size()));
  AppendU32(&blob, static_cast<std::uint32_t>(first.size()));
  AppendU32(&blob, static_cast<std::uint32_t>(pool.size()));
  AppendU32(&blob, static_cast<std::uint32_t>(stored.size()));
  const auto* node_bytes = reinterpret_cast<const unsigned char*>(nodes.data());
  blob.insert(blob.end(), node_bytes,
              node_bytes + nodes.size() * sizeof(FrozenMvIndex::Node));
  for (const query::Token& t : first) AppendToken(&blob, t);
  const auto* off_bytes =
      reinterpret_cast<const unsigned char*>(offsets.data());
  blob.insert(blob.end(), off_bytes,
              off_bytes + offsets.size() * sizeof(std::uint32_t));
  const auto* len_bytes = reinterpret_cast<const unsigned char*>(lens.data());
  blob.insert(blob.end(), len_bytes,
              len_bytes + lens.size() * sizeof(std::uint32_t));
  for (const query::Token& t : pool) AppendToken(&blob, t);
  const auto* sid_bytes =
      reinterpret_cast<const unsigned char*>(stored.data());
  blob.insert(blob.end(), sid_bytes,
              sid_bytes + stored.size() * sizeof(std::uint32_t));
  w.U64(blob.size());
  w.Raw(blob.data(), blob.size());

  // Entry table with its slot positions (dead slots persist as empty), so
  // the stored ids baked into the blob stay valid.
  w.U32(static_cast<std::uint32_t>(frozen.num_entries()));
  for (std::uint32_t id = 0; id < frozen.num_entries(); ++id) {
    if (!frozen.alive(id)) {
      w.U8(0);
      continue;
    }
    w.U8(1);
    WriteEntryBody(&w, frozen.entry(id), frozen.external_ids(id));
  }
  w.Finish();
  if (!w.ok()) return util::Status::Internal("write failed: " + path);
  return out.Commit();
}

util::Result<std::unique_ptr<FrozenMvIndex>> LoadFrozenIndex(
    const std::string& path, rdf::TermDictionary* dict) {
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return util::Status::NotFound("cannot open for reading: " + path);
  }
  Reader r(file.get());
  char magic[8];
  if (!r.Raw(magic, sizeof(magic)) ||
      std::memcmp(magic, kFrozenMagic, sizeof(kFrozenMagic)) != 0) {
    return util::Status::ParseError("bad magic in " + path);
  }

  std::vector<rdf::TermId> remap;
  RDFC_RETURN_NOT_OK(ReadDictionary(&r, dict, &remap));
  const std::uint32_t dict_size = static_cast<std::uint32_t>(remap.size());

  // The structure blob: one read, then slice — no per-node rebuild.
  std::uint64_t blob_size = 0;
  if (!r.U64(&blob_size) || blob_size > r.remaining()) {
    return util::Status::ParseError("truncated or implausible blob header");
  }
  std::vector<unsigned char> blob(blob_size);
  if (blob_size > 0 && !r.Raw(blob.data(), blob_size)) {
    return util::Status::ParseError("truncated blob");
  }
  std::uint32_t counts[4] = {0, 0, 0, 0};  // nodes, edges, labels, stored ids
  if (blob_size < sizeof(counts)) {
    return util::Status::ParseError("blob too small for its header");
  }
  std::memcpy(counts, blob.data(), sizeof(counts));
  const std::uint64_t num_nodes = counts[0];
  const std::uint64_t num_edges = counts[1];
  const std::uint64_t num_labels = counts[2];
  const std::uint64_t num_stored = counts[3];
  const std::uint64_t expected =
      sizeof(counts) + num_nodes * sizeof(FrozenMvIndex::Node) +
      (num_edges + num_labels) * kPackedTokenBytes +
      (2 * num_edges + num_stored) * sizeof(std::uint32_t);
  if (expected != blob_size) {
    return util::Status::ParseError("blob size does not match its counts");
  }

  std::unique_ptr<FrozenMvIndex> out(
      new FrozenMvIndex(dict));  // NOLINT(raw-new): private shell ctor, friend-only
  const unsigned char* cur = blob.data() + sizeof(counts);
  out->nodes_.resize(num_nodes);
  std::memcpy(out->nodes_.data(), cur, num_nodes * sizeof(FrozenMvIndex::Node));
  cur += num_nodes * sizeof(FrozenMvIndex::Node);
  auto read_tokens = [&cur, dict_size, &remap](
                         std::uint64_t n,
                         std::vector<query::Token>* tokens) -> bool {
    tokens->resize(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      query::Token& t = (*tokens)[i];
      if (cur[0] > static_cast<unsigned char>(query::TokenType::kSeparator) ||
          cur[1] > 1) {
        return false;
      }
      t.type = static_cast<query::TokenType>(cur[0]);
      t.inverse = cur[1] != 0;
      std::memcpy(&t.pred, cur + 4, sizeof(t.pred));
      std::memcpy(&t.term, cur + 8, sizeof(t.term));
      if (t.pred >= dict_size || t.term >= dict_size) return false;
      t.pred = remap[t.pred];
      t.term = remap[t.term];
      cur += kPackedTokenBytes;
    }
    return true;
  };
  if (!read_tokens(num_edges, &out->edge_first_)) {
    return util::Status::ParseError("malformed dispatch token");
  }
  out->edge_label_offset_.resize(num_edges);
  std::memcpy(out->edge_label_offset_.data(), cur,
              num_edges * sizeof(std::uint32_t));
  cur += num_edges * sizeof(std::uint32_t);
  out->edge_label_len_.resize(num_edges);
  std::memcpy(out->edge_label_len_.data(), cur,
              num_edges * sizeof(std::uint32_t));
  cur += num_edges * sizeof(std::uint32_t);
  if (!read_tokens(num_labels, &out->labels_)) {
    return util::Status::ParseError("malformed label token");
  }
  out->stored_ids_.resize(num_stored);
  std::memcpy(out->stored_ids_.data(), cur,
              num_stored * sizeof(std::uint32_t));

  // Entry table: dead slots stay empty so the blob's stored ids keep
  // pointing at the right rows.  Re-preparation is deterministic and also
  // re-registers the canonical variables CollectCandidateTokens looks up.
  std::uint32_t num_entries = 0;
  // Each entry slot needs at least its one-byte alive flag, so the
  // remaining file length bounds any honest count.
  if (!r.U32(&num_entries) || num_entries > r.remaining()) {
    return util::Status::ParseError("truncated or implausible entry count");
  }
  out->entries_.resize(num_entries);
  for (std::uint32_t id = 0; id < num_entries; ++id) {
    std::uint8_t alive = 0;
    if (!r.U8(&alive) || alive > 1) {
      return util::Status::ParseError("truncated entry flag");
    }
    if (alive == 0) continue;
    query::BgpQuery q;
    RDFC_RETURN_NOT_OK(ReadEntryQuery(&r, remap, &q));
    RDFC_ASSIGN_OR_RETURN(containment::PreparedStored prepared,
                          containment::PrepareStored(q, dict));
    if (prepared.tokens.empty()) out->skeleton_free_.push_back(id);
    out->entries_[id].prepared = std::move(prepared);
    out->entries_[id].alive = true;
    ++out->num_live_;
    // Bound the count by the bytes left before sizing anything by it: a
    // flipped count must fail cleanly, not allocate gigabytes.
    std::uint32_t num_externals = 0;
    if (!r.U32(&num_externals) ||
        static_cast<std::uint64_t>(num_externals) * sizeof(std::uint64_t) >
            r.remaining()) {
      return util::Status::ParseError("truncated or implausible externals");
    }
    out->entries_[id].external_ids.resize(num_externals);
    for (std::uint32_t i = 0; i < num_externals; ++i) {
      if (!r.U64(&out->entries_[id].external_ids[i])) {
        return util::Status::ParseError("truncated external");
      }
    }
  }
  if (!r.VerifyChecksum()) {
    return util::Status::ParseError("checksum mismatch in " + path);
  }
  // A malformed blob that survived the size/range checks (e.g. broken span
  // tiling) must not reach the walk; the validator covers exactly that.
  RDFC_RETURN_NOT_OK(ValidateFrozen(*out));
  return out;
}

util::Status SaveTieredIndex(const std::vector<TieredShardRef>& shards,
                             std::uint64_t watermark, const std::string& path,
                             const std::vector<TieredBlob>& committed) {
  if (shards.empty() || shards.size() > kMaxTieredShards) {
    return util::Status::InvalidArgument("implausible shard count " +
                                         std::to_string(shards.size()));
  }
  const bool known = committed.size() == shards.size();
  auto blob_of = [](const TieredShardRef& shard) {
    return TieredBlob{shard.base != nullptr, shard.generation};
  };
  // Every new base blob first: until the manifest below commits, the
  // previous manifest keeps naming the previous blobs, so a crash anywhere in
  // between recovers to the older — but consistent — checkpoint.
  for (std::size_t s = 0; s < shards.size(); ++s) {
    if (shards[s].base == nullptr) continue;
    if (known && committed[s] == blob_of(shards[s])) continue;
    RDFC_RETURN_NOT_OK(SaveFrozenIndex(
        *shards[s].base, TieredBasePath(path, s, shards[s].generation)));
  }
  if (RDFC_FAILPOINT("compact.crash")) {
    // Simulated crash in exactly that window: new bases committed, manifest
    // not.  rdfc_fuzz and the persistence tests assert the old manifest
    // still loads.
    return util::Status::Internal("failpoint compact.crash");
  }

  AtomicFileWriter out(path);
  RDFC_RETURN_NOT_OK(out.Open());
  Writer w(out.file());
  w.Raw(kTieredMagic, sizeof(kTieredMagic));
  w.U32(static_cast<std::uint32_t>(shards.size()));
  w.U64(watermark);
  for (const TieredShardRef& shard : shards) {
    w.U64(shard.generation);
    w.U8(shard.base != nullptr ? 1 : 0);
  }
  w.Finish();
  if (!w.ok()) return util::Status::Internal("write failed: " + path);
  RDFC_RETURN_NOT_OK(out.Commit());
  // The superseded blobs are unreachable now; best effort — a leftover blob
  // is wasted space, never incorrectness.
  for (std::size_t s = 0; known && s < shards.size(); ++s) {
    if (committed[s].has_base && committed[s] != blob_of(shards[s])) {
      (void)std::remove(
          TieredBasePath(path, s, committed[s].generation).c_str());
    }
  }
  return util::Status::OK();
}

util::Result<TieredImage> LoadTieredIndex(const std::string& path,
                                          rdf::TermDictionary* dict) {
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return util::Status::NotFound("cannot open for reading: " + path);
  }
  Reader r(file.get());
  char magic[8];
  if (!r.Raw(magic, sizeof(magic)) ||
      std::memcmp(magic, kTieredMagic, sizeof(kTieredMagic)) != 0) {
    return util::Status::ParseError("bad magic in " + path);
  }
  std::uint32_t num_shards = 0;
  if (!r.U32(&num_shards) || num_shards == 0 ||
      num_shards > kMaxTieredShards) {
    return util::Status::ParseError("truncated or implausible shard count");
  }
  TieredImage image;
  if (!r.U64(&image.watermark)) {
    return util::Status::ParseError("truncated watermark");
  }
  image.shards.resize(num_shards);
  std::vector<std::uint8_t> has_base(num_shards, 0);
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    if (!r.U64(&image.shards[s].generation) || !r.U8(&has_base[s]) ||
        has_base[s] > 1) {
      return util::Status::ParseError("truncated shard header");
    }
  }
  if (!r.VerifyChecksum()) {
    return util::Status::ParseError("checksum mismatch in " + path);
  }

  // Only a checksum-clean manifest names base blobs, so this load never
  // touches a half-written blob from a crashed compaction save.
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    if (has_base[s] == 0) continue;
    RDFC_ASSIGN_OR_RETURN(
        image.shards[s].base,
        LoadFrozenIndex(TieredBasePath(path, s, image.shards[s].generation),
                        dict));
  }
  return image;
}

}  // namespace index
}  // namespace rdfc
