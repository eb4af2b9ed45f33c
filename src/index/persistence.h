#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "index/frozen_index.h"
#include "rdf/dictionary.h"
#include "util/status.h"

namespace rdfc {
namespace index {

/// Binary image of a frozen index (magic "RDFCFZ01").  Both formats here are
/// encoded in memory through the shared byte codec (util/bytes.h:
/// little-endian, trailing util::Fnv1a checksum over every byte before it)
/// and written whole through a crash-safe tmp + fsync + rename.
///
/// The term dictionary in id order comes first, then the frozen tree
/// structure as a single relocatable blob: a count header plus the five flat
/// arrays, every cross-reference an array index.
/// LoadFrozenIndex reads the file once, checks its checksum, and slices the
/// blob from that buffer into the in-memory arrays — no per-node rebuild,
/// so load cost is I/O plus the entry-table preparation (deterministic PrepareStored per live entry,
/// which also re-registers the canonical variables the probe walk looks up).
/// Tokens are stored in an explicit packed form so on-disk bytes never
/// depend on struct padding; term ids are mapped through the dictionary
/// remap while slicing, so loads into a pre-populated dictionary stay
/// correct.
///
/// The entry table keeps its slot positions (dead slots persist as empty),
/// so stored ids — and therefore probe results — are stable across a
/// save/load cycle.  This is the one on-disk form of an index: the CLI
/// tools write it through SaveFrozenIndex(FrozenMvIndex(index)), and every
/// checkpoint shard base is one.
[[nodiscard]] util::Status SaveFrozenIndex(const FrozenMvIndex& frozen,
                                           const std::string& path);

/// Loads a frozen image.  The returned index points at `dict`; the image is
/// validated (ValidateFrozen) before it is returned.
[[nodiscard]] util::Result<std::unique_ptr<FrozenMvIndex>> LoadFrozenIndex(
    const std::string& path, rdf::TermDictionary* dict);

/// One shard of a checkpoint to persist (borrowed base; see
/// SaveTieredIndex).
struct TieredShardRef {
  const FrozenMvIndex* base = nullptr;  // null: the shard has no base
  std::uint64_t generation = 0;         // shard base generation (refreezes)
};

/// The base blob a committed manifest names for one shard.
struct TieredBlob {
  bool has_base = false;
  std::uint64_t generation = 0;
  bool operator==(const TieredBlob&) const = default;
};

/// One loaded shard: its frozen base (null when the shard had none).
struct TieredShardImage {
  std::unique_ptr<FrozenMvIndex> base;
  std::uint64_t generation = 0;
};

/// A checkpoint manifest's header: the journal watermark and the blob each
/// shard names, in routing order.
struct TieredManifest {
  std::uint64_t watermark = 0;
  std::vector<TieredBlob> blobs;
};

/// A loaded checkpoint (service/index_manager.h "Tiered write path" /
/// "Sharded index"): one entry per shard in routing order, plus the journal
/// watermark the bases cover.
struct TieredImage {
  std::vector<TieredShardImage> shards;
  std::uint64_t watermark = 0;
};

/// Saves a checkpoint: one frozen base blob per shard plus one manifest.
///
///   <path>.base.<shard>.<generation>   the shard's base via SaveFrozenIndex
///                                      (none when the shard has no base);
///   <path>                             the manifest (magic "RDFCTI03"):
///                                      shard count, the journal watermark
///                                      W, then per shard its generation and
///                                      a has-base flag.
///
/// The bases hold exactly the effect of every journal record with sequence
/// <= W; un-frozen changes live only in the journal, and recovery replays
/// the records with sequence > W over the restored bases.
///
/// `committed` names the blobs of the manifest now at `path` (one entry per
/// shard it lists; empty when there is none).  A shard whose blob is
/// already committed is not rewritten, and the caller must not pass any
/// other shard a generation `committed` names for it, since that blob would
/// be overwritten.  Every new blob commits before the manifest, so a crash
/// between the two (failpoint `compact.crash`) leaves the previous manifest
/// naming the previous blobs — always a consistent, loadable checkpoint.
/// After the manifest commits, the committed blobs it no longer names are
/// removed (best effort).  A save that fails after writing blobs removes
/// the blobs it wrote (best effort), never one the committed manifest
/// names.
[[nodiscard]] util::Status SaveTieredIndex(
    const std::vector<TieredShardRef>& shards, std::uint64_t watermark,
    const std::string& path, const std::vector<TieredBlob>& committed);

/// Reads and checks the manifest at `path` without opening any blob.
[[nodiscard]] util::Result<TieredManifest> LoadTieredManifest(
    const std::string& path);

/// Loads a checkpoint.  `dict` must be freshly constructed; each base blob's
/// dictionary is re-interned into it.  Base blobs are opened only after the
/// manifest passes its checksum, so a half-written blob from a crashed save
/// is never touched.
[[nodiscard]] util::Result<TieredImage> LoadTieredIndex(
    const std::string& path, rdf::TermDictionary* dict);

}  // namespace index
}  // namespace rdfc
