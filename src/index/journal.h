#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "query/bgp_query.h"
#include "rdf/dictionary.h"
#include "util/macros.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace rdfc {
namespace index {

/// When the journal makes an appended record durable (DESIGN.md
/// "Durability").  Every policy flushes to the kernel on append (fflush), so
/// a SIGKILL'd process never loses an acknowledged record under any policy;
/// fsync only widens the guarantee to power loss.
enum class JournalFsync : std::uint8_t {
  kAlways = 0,  ///< fsync after every append (power-loss durable per batch)
  kGroup = 1,   ///< fsync at most once per group window (amortised)
  kOff = 2,     ///< never fsync (process-crash durable only)
};

struct JournalOptions {
  std::string path;
  JournalFsync fsync = JournalFsync::kGroup;
  /// kGroup: minimum microseconds between fsyncs.  Appends inside the window
  /// flush to the kernel but skip the disk barrier.  Keep the window well
  /// above the device's barrier latency (a few ms on commodity ext4) —
  /// a smaller window makes the flusher run barriers back-to-back, which
  /// stalls the writer's appends against the filesystem journal for no
  /// added durability.
  std::uint64_t group_window_micros = 10000;
};

/// One logical index mutation inside a journalled batch.  Adds carry the
/// view's full query with self-contained lexical terms, so replay re-interns
/// into whatever dictionary the restored process has — journal records never
/// reference dictionary ids that may not survive a restart.
struct JournalOp {
  enum class Kind : std::uint8_t { kAdd = 1, kRemove = 2 };
  Kind kind = Kind::kAdd;
  std::uint64_t view_id = 0;
  query::BgpQuery view;  // meaningful for kAdd only
};

/// One acknowledged Publish batch: a dense sequence number (strictly
/// monotone per journal, surviving rebases via the header base), the
/// snapshot version the batch produced, and the staged ops in stage order.
struct JournalBatch {
  std::uint64_t sequence = 0;
  std::uint64_t version = 0;
  std::vector<JournalOp> ops;
};

struct JournalStats {
  std::uint64_t records_appended = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t records_replayed = 0;
  std::uint64_t ops_replayed = 0;
  std::uint64_t truncated_bytes = 0;  // torn/corrupt tail dropped at Open
  std::uint64_t last_sequence = 0;    // highest sequence appended or replayed
  /// Replay stopped early (I/O error or `journal.replay` failpoint) without
  /// truncating: the file still holds unreplayed acknowledged records, so
  /// Append is refused until a clean re-open replays them.
  bool degraded = false;
};

/// Append-only write-ahead journal for the delta tier (magic "RDFCWJ01").
///
/// File layout, little-endian through the shared byte codec (util/bytes.h:
/// util::ByteWriter / util::ByteReader, util::Fnv1a checksums):
///
///   header   magic[8] + u64 base_sequence + u64 FNV-1a(magic+base)
///   record*  u32 payload_len + u64 FNV-1a(payload) + payload
///
/// where payload = u64 sequence (strictly base+k for the k-th record), u64
/// version, u32 num_ops, then each op as u8 kind + u64 view_id, adds
/// followed by u32 num_triples and each triple as three terms of
/// u8 TermKind + u32 len + lexical bytes.
///
/// The journal is the only durable form of un-frozen state.  A checkpoint
/// (index/persistence.h) holds frozen bases that cover every record up to a
/// sequence watermark W; Open() skips records with sequence <= W and replays
/// the rest, and Rebase(W) then drops the covered records from the file.
///
/// Open() scans the file, replaying every record whose length, checksum, and
/// sequence check out through the caller's replay callback; the first torn
/// or corrupt record ends the scan and the file is physically truncated to
/// the last valid byte — a crash mid-append can only cost bytes that were
/// never acknowledged.  A corrupt header resets the journal to an empty one
/// based at the watermark: headers are only ever replaced through an atomic
/// rename, so a corrupt one means damaged media, and the records behind it
/// cannot be trusted.
///
/// Append() is transactional: on any write/fsync failure the file is
/// restored to its pre-append length, so a record either becomes fully
/// replayable or leaves no trace.
///
/// Threading: the public API is NOT thread-safe — the IndexManager
/// serializes all calls under its writer lock.  kGroup mode runs an
/// internal flusher thread that takes the disk barrier off the append
/// path: appends mark the tail dirty (the bytes are already fflushed to
/// the kernel) and the flusher fsyncs the fd at most once per group
/// window.  The flusher touches only the raw fd (fsync is a kernel-side
/// barrier on whatever has been flushed, safe beside concurrent writes);
/// all FILE* operations stay on the writer side.  Rebase() swaps the file
/// under that fd number (dup2), so the flusher's handle stays valid.
class WriteAheadJournal {
 public:
  using ReplayFn = std::function<util::Status(const JournalBatch&)>;

  RDFC_DISALLOW_COPY_AND_ASSIGN(WriteAheadJournal);
  ~WriteAheadJournal();

  /// Opens (creating if absent) the journal at `options.path`, replaying
  /// every intact record with sequence > `watermark` through `replay` in
  /// sequence order.  Records at or below the watermark are checksummed but
  /// never decoded, so their terms are not interned.  Add ops are
  /// re-interned into `dict` while parsing (writer-side dictionary calls;
  /// the caller holds its mutation lock).  A journal that ends below the
  /// watermark (fresh, or reset by a corrupt header) is rebased to it, so
  /// the next append gets watermark + 1.  Returns the journal positioned for
  /// appending after the last valid record.
  [[nodiscard]] static util::Result<std::unique_ptr<WriteAheadJournal>> Open(
      const JournalOptions& options, rdf::TermDictionary* dict,
      const ReplayFn& replay, std::uint64_t watermark = 0);

  /// Appends one batch record and makes it durable per the fsync policy.
  /// `batch.sequence` must equal next_sequence().
  [[nodiscard]] util::Status Append(const JournalBatch& batch,
                                    const rdf::TermDictionary& dict);

  /// Drops every record with sequence <= `watermark`: called after a
  /// checkpoint whose bases cover them has committed.  The kept tail is
  /// written behind a header with base_sequence = watermark to
  /// `<path>.tmp`, fsynced, and renamed over the journal, so a crash at any
  /// point leaves either the old file or the new one.  A watermark past the
  /// last sequence leaves no records and moves the next sequence to
  /// watermark + 1; one at or below the header base is a no-op.  Refused on
  /// a degraded journal.
  [[nodiscard]] util::Status Rebase(std::uint64_t watermark);

  /// Forces an fsync regardless of policy (e.g. before a clean shutdown).
  [[nodiscard]] util::Status Sync();

  /// Writer-side counters only; group-commit fsyncs from the flusher
  /// thread are NOT folded in — use stats_snapshot() for the full picture.
  const JournalStats& stats() const { return stats_; }
  /// stats() plus the flusher thread's group-commit fsync count.
  JournalStats stats_snapshot() const;
  std::uint64_t next_sequence() const { return stats_.last_sequence + 1; }
  const std::string& path() const { return options_.path; }

 private:
  WriteAheadJournal(JournalOptions options, std::FILE* file);

  /// Atomically replaces the file with a header for `base_sequence`
  /// followed by `records` (tmp + fsync + rename), and moves the open
  /// handle onto it.
  [[nodiscard]] util::Status ReplaceFile(std::uint64_t base_sequence,
                                         const std::string& records);
  /// Scans the existing file, replaying records past `watermark`; truncates
  /// the torn tail.  Sets stats_.degraded (and leaves the file intact) when
  /// replay stops early.
  [[nodiscard]] util::Status ReplayAndRecover(rdf::TermDictionary* dict,
                                              const ReplayFn& replay,
                                              std::uint64_t watermark);
  /// Restores the file to `length` bytes after a failed append.
  void RollBackTo(std::uint64_t length);
  /// kGroup: spawns the background group-commit flusher.
  void StartFlusher();
  void FlusherLoop();

  JournalOptions options_;
  std::FILE* file_;  // append-positioned; owned; FILE* ops writer-side only
  int fd_ = -1;      // cached fileno(file_); the flusher's only handle
  std::uint64_t end_offset_ = 0;  // bytes of header + valid records
  std::uint64_t base_sequence_ = 0;  // the header's base
  JournalStats stats_;

  // Deferred group commit (kGroup): the writer marks the tail dirty and the
  // flusher pays the fsync at most once per group window, off the append
  // path.  A record is still kernel-durable the moment Append returns.
  std::unique_ptr<util::ThreadPool> flusher_;  // 1 thread; kGroup only
  mutable util::Mutex flush_mu_;
  util::CondVar flush_cv_;
  bool flush_dirty_ RDFC_GUARDED_BY(flush_mu_) = false;
  bool flush_stop_ RDFC_GUARDED_BY(flush_mu_) = false;
  std::uint64_t group_fsyncs_ RDFC_GUARDED_BY(flush_mu_) = 0;
};

}  // namespace index
}  // namespace rdfc
