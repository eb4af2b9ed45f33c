#include "index/persistence.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "index/validate.h"
#include "util/bytes.h"
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

/// The flat u32 arrays of the structure section are copied as raw spans,
/// which are the little-endian encoding on the hosts this builds for.
static_assert(std::endian::native == std::endian::little,
              "frozen images copy u32 arrays as raw little-endian spans");

constexpr std::size_t kMagicBytes = 8;
constexpr std::size_t kChecksumBytes = 8;

/// Crash-safe write of a whole encoded file: `bytes` go to `path + ".tmp"`,
/// which is flushed, fsynced and atomically renamed over `path`.  A failure
/// (or a real crash) at any point leaves whatever was previously at `path`
/// byte-for-byte intact, and the temp file is removed.  Failpoint sites
/// cover each I/O stage so rdfc_fuzz can exercise every abort path
/// deterministically.
util::Status WriteFileAtomically(const std::string& path,
                                 std::string_view bytes) {
  if (RDFC_FAILPOINT("persistence.open")) {
    return util::Status::Internal("failpoint persistence.open");
  }
  const std::string tmp_path = path + ".tmp";
  std::FILE* file = std::fopen(tmp_path.c_str(), "wb");
  if (file == nullptr) {
    return util::Status::InvalidArgument("cannot open for writing: " +
                                         tmp_path);
  }
  util::Status st = [&]() -> util::Status {
    if (std::fwrite(bytes.data(), 1, bytes.size(), file) != bytes.size()) {
      return util::Status::Internal("write failed: " + path);
    }
    if (RDFC_FAILPOINT("persistence.write")) {
      return util::Status::Internal("failpoint persistence.write");
    }
    if (std::fflush(file) != 0) {
      return util::Status::Internal("flush failed: " + tmp_path);
    }
#if defined(__unix__) || defined(__APPLE__)
    if (RDFC_FAILPOINT("persistence.fsync") || fsync(fileno(file)) != 0) {
      return util::Status::Internal("fsync failed: " + tmp_path);
    }
#endif
    return util::Status::OK();
  }();
  if (std::fclose(file) != 0 && st.ok()) {
    st = util::Status::Internal("close failed: " + tmp_path);
  }
  if (st.ok() && RDFC_FAILPOINT("persistence.crash")) {
    // Simulated crash between durability and the rename: the temp file is
    // left behind exactly as a killed process would leave it, and the
    // previous snapshot at `path` must remain loadable and checksum-clean.
    return util::Status::Internal("failpoint persistence.crash");
  }
  if (st.ok() && std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    st = util::Status::Internal("rename failed: " + path);
  }
  if (!st.ok()) {
    (void)std::remove(tmp_path.c_str());
    return st;
  }
#if defined(__unix__) || defined(__APPLE__)
  // Best-effort directory fsync so the rename itself survives power loss.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash);
  const int dir_fd = open(dir.c_str(), O_RDONLY);
  if (dir_fd >= 0) {
    (void)fsync(dir_fd);
    (void)close(dir_fd);
  }
#endif
  return util::Status::OK();
}

/// Appends the FNV-1a-64 trailer of everything in `bytes`, then writes the
/// file crash-safely.
util::Status SealAndWrite(const std::string& path, std::string* bytes) {
  util::ByteWriter(bytes).U64(util::Fnv1a(*bytes));
  return WriteFileAtomically(path, *bytes);
}

/// Reads the file at `path` whole into `contents` and checks its magic and
/// its trailing checksum.  On success `body` views the bytes between the
/// two, so nothing is decoded from a file that is torn or corrupt.
util::Status ReadSealed(const std::string& path, const char* magic,
                        std::string* contents, std::string_view* body) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return util::Status::NotFound("cannot open for reading: " + path);
  }
  long size = -1;
  if (std::fseek(file, 0, SEEK_END) == 0) size = std::ftell(file);
  bool read = size >= 0 && std::fseek(file, 0, SEEK_SET) == 0;
  if (read) {
    contents->resize(static_cast<std::size_t>(size));
    read = std::fread(contents->data(), 1, contents->size(), file) ==
           contents->size();
  }
  std::fclose(file);
  if (!read) return util::Status::Internal("read failed: " + path);
  const std::string_view bytes(*contents);
  if (bytes.substr(0, kMagicBytes) != std::string_view(magic, kMagicBytes)) {
    return util::Status::ParseError("bad magic in " + path);
  }
  std::uint64_t stored = 0;
  if (bytes.size() < kMagicBytes + kChecksumBytes ||
      !util::ByteReader(bytes.substr(bytes.size() - kChecksumBytes))
           .U64(&stored) ||
      stored != util::Fnv1a(bytes.substr(0, bytes.size() - kChecksumBytes))) {
    return util::Status::ParseError("checksum mismatch in " + path);
  }
  *body = bytes.substr(kMagicBytes,
                       bytes.size() - kMagicBytes - kChecksumBytes);
  return util::Status::OK();
}

/// Dictionary section of a frozen image: term count, then each term in
/// id order (slot 0 is the reserved null term; skipped).
void WriteDictionary(util::ByteWriter* w, const rdf::TermDictionary& dict) {
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
util::Status ReadDictionary(util::ByteReader* r, rdf::TermDictionary* dict,
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
    std::string_view lexical;
    if (!r->U8(&kind) || !r->Str(&lexical) || kind > 3) {
      return util::Status::ParseError("truncated dictionary entry");
    }
    (*remap)[id] = dict->Intern(static_cast<rdf::TermKind>(kind), lexical);
  }
  return util::Status::OK();
}

/// One live entry of a frozen image: the canonical patterns followed by the
/// external ids.
void WriteEntryBody(util::ByteWriter* w,
                    const containment::PreparedStored& stored,
                    const std::vector<std::uint64_t>& externals) {
  w->U32(static_cast<std::uint32_t>(stored.canonical.size()));
  for (const rdf::Triple& t : stored.canonical.patterns()) {
    w->U32(t.s);
    w->U32(t.p);
    w->U32(t.o);
  }
  w->U64Vector(externals);
}

/// Reads one entry's canonical patterns (remapped) into `q`.
util::Status ReadEntryQuery(util::ByteReader* r,
                            const std::vector<rdf::TermId>& remap,
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

/// Size of a structure blob with these counts: the four u32 counts, the
/// nodes, the packed dispatch and label tokens, and the u32 arrays.
std::uint64_t StructureBytes(std::uint64_t nodes, std::uint64_t edges,
                             std::uint64_t labels, std::uint64_t stored) {
  return 4 * sizeof(std::uint32_t) + nodes * sizeof(FrozenMvIndex::Node) +
         (edges + labels) * kPackedTokenBytes +
         (2 * edges + stored) * sizeof(std::uint32_t);
}

void WriteTokens(util::ByteWriter* w, const std::vector<query::Token>& tokens) {
  for (const query::Token& t : tokens) {
    w->U8(static_cast<std::uint8_t>(t.type));
    w->U8(t.inverse ? 1 : 0);
    w->Raw(std::string_view("\0\0", 2));
    w->U32(t.pred);
    w->U32(t.term);
  }
}

/// Reads `n` packed tokens, remapping their term ids; false on a malformed
/// token or an out-of-range id.
bool ReadTokens(util::ByteReader* r, std::uint64_t n,
                const std::vector<rdf::TermId>& remap,
                std::vector<query::Token>* tokens) {
  tokens->resize(n);
  for (query::Token& t : *tokens) {
    std::uint8_t type = 0, inverse = 0;
    std::string_view padding;
    if (!r->U8(&type) || !r->U8(&inverse) || !r->Bytes(2, &padding) ||
        !r->U32(&t.pred) || !r->U32(&t.term) ||
        type > static_cast<std::uint8_t>(query::TokenType::kSeparator) ||
        inverse > 1 || t.pred >= remap.size() || t.term >= remap.size()) {
      return false;
    }
    t.type = static_cast<query::TokenType>(type);
    t.inverse = inverse != 0;
    t.pred = remap[t.pred];
    t.term = remap[t.term];
  }
  return true;
}

template <typename T>
void WriteSpan(util::ByteWriter* w, const std::vector<T>& v) {
  w->Raw(v.data(), v.size() * sizeof(T));
}

template <typename T>
bool ReadSpan(util::ByteReader* r, std::uint64_t n, std::vector<T>* v) {
  std::string_view bytes;
  if (!r->Bytes(n * sizeof(T), &bytes)) return false;
  v->resize(n);
  if (n > 0) std::memcpy(v->data(), bytes.data(), bytes.size());
  return true;
}

}  // namespace

util::Status SaveFrozenIndex(const FrozenMvIndex& frozen,
                             const std::string& path) {
  std::string bytes;
  util::ByteWriter w(&bytes);
  w.Raw(kFrozenMagic, kMagicBytes);
  WriteDictionary(&w, frozen.dict());

  // The tree structure as one relocatable blob: count header + the five flat
  // arrays back to back, every cross-reference an array index.
  const auto& nodes = frozen.nodes();
  const auto& first = frozen.edge_first_tokens();
  const auto& pool = frozen.label_pool();
  const auto& stored = frozen.stored_ids();
  w.U64(StructureBytes(nodes.size(), first.size(), pool.size(), stored.size()));
  w.U32(static_cast<std::uint32_t>(nodes.size()));
  w.U32(static_cast<std::uint32_t>(first.size()));
  w.U32(static_cast<std::uint32_t>(pool.size()));
  w.U32(static_cast<std::uint32_t>(stored.size()));
  WriteSpan(&w, nodes);
  WriteTokens(&w, first);
  WriteSpan(&w, frozen.edge_label_offsets());
  WriteSpan(&w, frozen.edge_label_lens());
  WriteTokens(&w, pool);
  WriteSpan(&w, stored);

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
  return SealAndWrite(path, &bytes);
}

util::Result<std::unique_ptr<FrozenMvIndex>> LoadFrozenIndex(
    const std::string& path, rdf::TermDictionary* dict) {
  std::string contents;
  std::string_view body;
  RDFC_RETURN_NOT_OK(ReadSealed(path, kFrozenMagic, &contents, &body));
  util::ByteReader r(body);

  std::vector<rdf::TermId> remap;
  RDFC_RETURN_NOT_OK(ReadDictionary(&r, dict, &remap));

  // The structure blob: a view into the file bytes, sliced straight into
  // the flat arrays — no per-node rebuild.
  std::uint64_t blob_size = 0;
  std::string_view blob_bytes;
  if (!r.U64(&blob_size) || !r.Bytes(blob_size, &blob_bytes)) {
    return util::Status::ParseError("truncated or implausible blob header");
  }
  util::ByteReader blob(blob_bytes);
  std::uint32_t num_nodes = 0, num_edges = 0, num_labels = 0, num_stored = 0;
  if (!blob.U32(&num_nodes) || !blob.U32(&num_edges) ||
      !blob.U32(&num_labels) || !blob.U32(&num_stored)) {
    return util::Status::ParseError("blob too small for its header");
  }
  if (StructureBytes(num_nodes, num_edges, num_labels, num_stored) !=
      blob_size) {
    return util::Status::ParseError("blob size does not match its counts");
  }

  std::unique_ptr<FrozenMvIndex> out(
      new FrozenMvIndex(dict));  // NOLINT(raw-new): private shell ctor, friend-only
  // The size check above guarantees every span is present.
  (void)ReadSpan(&blob, num_nodes, &out->nodes_);
  if (!ReadTokens(&blob, num_edges, remap, &out->edge_first_)) {
    return util::Status::ParseError("malformed dispatch token");
  }
  (void)ReadSpan(&blob, num_edges, &out->edge_label_offset_);
  (void)ReadSpan(&blob, num_edges, &out->edge_label_len_);
  if (!ReadTokens(&blob, num_labels, remap, &out->labels_)) {
    return util::Status::ParseError("malformed label token");
  }
  (void)ReadSpan(&blob, num_stored, &out->stored_ids_);

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
    // The reader bounds the count by the bytes left before sizing anything
    // by it: a flipped count fails cleanly, it does not allocate gigabytes.
    if (!r.U64Vector(&out->entries_[id].external_ids)) {
      return util::Status::ParseError("truncated or implausible externals");
    }
  }
  if (!r.exhausted()) {
    return util::Status::ParseError("trailing bytes in " + path);
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
  auto blob_of = [](const TieredShardRef& shard) {
    return TieredBlob{shard.base != nullptr, shard.generation};
  };
  auto is_committed = [&](std::size_t s) {
    return s < committed.size() && s < shards.size() &&
           committed[s] == blob_of(shards[s]);
  };
  // Blobs this call wrote.  Until the manifest commits nothing names them,
  // so a failure removes them again (best effort).
  std::vector<std::string> written;
  auto fail = [&written](util::Status st) {
    for (const std::string& blob : written) (void)std::remove(blob.c_str());
    return st;
  };
  // Every new base blob first: until the manifest below commits, the
  // previous manifest keeps naming the previous blobs, so a crash anywhere in
  // between recovers to the older — but consistent — checkpoint.
  for (std::size_t s = 0; s < shards.size(); ++s) {
    if (shards[s].base == nullptr) continue;
    if (is_committed(s)) continue;
    const std::string blob = TieredBasePath(path, s, shards[s].generation);
    written.push_back(blob);
    if (util::Status st = SaveFrozenIndex(*shards[s].base, blob); !st.ok()) {
      return fail(std::move(st));
    }
  }
  if (RDFC_FAILPOINT("compact.crash")) {
    // Simulated crash in exactly that window: new bases committed, manifest
    // not.  rdfc_fuzz and the persistence tests assert the old manifest
    // still loads.
    return fail(util::Status::Internal("failpoint compact.crash"));
  }

  std::string bytes;
  util::ByteWriter w(&bytes);
  w.Raw(kTieredMagic, kMagicBytes);
  w.U32(static_cast<std::uint32_t>(shards.size()));
  w.U64(watermark);
  for (const TieredShardRef& shard : shards) {
    w.U64(shard.generation);
    w.U8(shard.base != nullptr ? 1 : 0);
  }
  if (util::Status st = SealAndWrite(path, &bytes); !st.ok()) {
    return fail(std::move(st));
  }
  // The superseded blobs are unreachable now; best effort — a leftover blob
  // is wasted space, never incorrectness.
  for (std::size_t s = 0; s < committed.size(); ++s) {
    if (committed[s].has_base && !is_committed(s)) {
      (void)std::remove(
          TieredBasePath(path, s, committed[s].generation).c_str());
    }
  }
  return util::Status::OK();
}

util::Result<TieredManifest> LoadTieredManifest(const std::string& path) {
  std::string contents;
  std::string_view body;
  RDFC_RETURN_NOT_OK(ReadSealed(path, kTieredMagic, &contents, &body));
  util::ByteReader r(body);
  std::uint32_t num_shards = 0;
  if (!r.U32(&num_shards) || num_shards == 0 ||
      num_shards > kMaxTieredShards) {
    return util::Status::ParseError("truncated or implausible shard count");
  }
  TieredManifest manifest;
  if (!r.U64(&manifest.watermark)) {
    return util::Status::ParseError("truncated watermark");
  }
  manifest.blobs.resize(num_shards);
  for (TieredBlob& blob : manifest.blobs) {
    std::uint8_t has_base = 0;
    if (!r.U64(&blob.generation) || !r.U8(&has_base) || has_base > 1) {
      return util::Status::ParseError("truncated shard header");
    }
    blob.has_base = has_base == 1;
  }
  if (!r.exhausted()) {
    return util::Status::ParseError("trailing bytes in " + path);
  }
  return manifest;
}

util::Result<TieredImage> LoadTieredIndex(const std::string& path,
                                          rdf::TermDictionary* dict) {
  RDFC_ASSIGN_OR_RETURN(TieredManifest manifest, LoadTieredManifest(path));
  TieredImage image;
  image.watermark = manifest.watermark;
  image.shards.resize(manifest.blobs.size());
  // Only a checksum-clean manifest names base blobs, so this load never
  // touches a half-written blob from a crashed compaction save.
  for (std::size_t s = 0; s < manifest.blobs.size(); ++s) {
    image.shards[s].generation = manifest.blobs[s].generation;
    if (!manifest.blobs[s].has_base) continue;
    RDFC_ASSIGN_OR_RETURN(
        image.shards[s].base,
        LoadFrozenIndex(TieredBasePath(path, s, manifest.blobs[s].generation),
                        dict));
  }
  return image;
}

}  // namespace index
}  // namespace rdfc
