#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "containment/pipeline.h"
#include "index/frozen_index.h"
#include "index/journal.h"
#include "index/mv_index.h"
#include "index/persistence.h"
#include "query/bgp_query.h"
#include "rdf/dictionary.h"
#include "util/macros.h"
#include "util/mutex.h"
#include "util/snapshot_vector.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace rdfc {
namespace service {

/// Tiered write-path knobs (DESIGN.md "Tiered write path" and "Sharded
/// index").
///
/// Publish builds only the *delta* tier of the shards a write batch touched
/// — the views staged since the last refreeze — so its cost is O(dirty
/// shards' deltas), independent of how many views the frozen bases hold.
/// Compaction (background or explicit Refreeze) merges each dirty shard's
/// delta into a new frozen base for that shard off the write path.
struct TierOptions {
  /// Schedule a background compaction after a Publish that leaves the delta
  /// tiers over either trigger below.  Off = compaction only via Refreeze(),
  /// which also serves as the pure pointer-tree A/B configuration: with no
  /// compaction the bases never materialise and every probe walks deltas.
  bool background_compaction = true;
  /// Compact when delta views + tombstones (summed across shards) reach this
  /// count (0 disables).
  std::size_t compact_min_delta_views = 1024;
  /// Compact when delta views + tombstones exceed this fraction of the base
  /// (0 disables; inactive until a base exists).
  double compact_min_delta_fraction = 0.25;
  /// Index shards: views are routed by AnchorSignature(view) % num_shards,
  /// so a write batch sharing a signature dirties — and refreezes — exactly
  /// one shard, and a probe fans out across the populated shards.  Clamped
  /// to [1, IndexSnapshot::kMaxShards]; 1 reproduces the unsharded index
  /// bit-for-bit (shard tag bits stay zero).
  std::size_t num_shards = 8;
};

/// One shard's two probe tiers.  Immutable once published; snapshots share
/// unchanged shards by pointer, so publishing a batch that touches one shard
/// copies N-1 pointers and rebuilds one small delta.
///
/// Tier layout (per shard):
///   base        frozen FrozenMvIndex shared across versions; null until the
///               shard's first compaction (or when a compaction emptied it).
///   tombstones  sorted external ids removed since the base was frozen —
///               they mask base answers (a base entry all of whose external
///               ids are tombstoned is dropped from the merged result).
///   delta       small pointer-tree MvIndex holding exactly the views staged
///               into this shard since its last refreeze; null when empty.
///
/// The tiers partition the shard's visible views: an external id lives in
/// the base xor the delta, never both.
struct ShardTier {
  std::shared_ptr<const index::FrozenMvIndex> base;
  /// Sorted external ids baked into `base` (including currently tombstoned
  /// ones); shared with every version on the same base generation.
  std::shared_ptr<const std::vector<std::uint64_t>> base_view_ids;
  std::vector<std::uint64_t> tombstones;  // sorted; masks base only
  std::shared_ptr<const index::MvIndex> delta;
  std::vector<std::uint64_t> delta_view_ids;  // sorted

  /// Probes this shard's two tiers and merges them: union of contained sets
  /// with fully-tombstoned base matches dropped, counters summed, one shared
  /// budget across both walks.  Delta-tier stored ids come back tagged with
  /// IndexSnapshot::kDeltaTierTag; shard bits are added by the snapshot
  /// merge.
  index::ProbeResult Find(const containment::PreparedProbe& probe,
                          const index::ProbeOptions& options) const;

  bool empty() const { return base == nullptr && delta == nullptr; }
  std::size_t num_base_views() const {
    return base_view_ids == nullptr ? 0 : base_view_ids->size();
  }
  std::size_t num_delta_views() const { return delta_view_ids.size(); }
  std::size_t num_tombstones() const { return tombstones.size(); }
  /// Views visible through this shard (base - tombstones + delta).
  std::size_t num_views() const {
    return num_base_views() - num_tombstones() + num_delta_views();
  }
};

/// How a probe was executed against a snapshot (metrics; see FindParallel).
struct ProbeFanout {
  std::uint32_t shards_probed = 0;   // populated shards the walk covered
  std::uint32_t parallel_walkers = 1;  // 1 = fully inline ("direct-routed")
};

/// One immutable published version of the mv-index, as a vector of shard
/// tiers keyed by AnchorSignature(view) % num_shards.  Once a snapshot is
/// reachable through IndexManager::Acquire nothing ever mutates it; probes
/// run against the shard tiers (all const) with no synchronisation at all.
struct IndexSnapshot {
  /// High bit tagging a delta-tier stored id in a merged ProbeResult (base
  /// and delta number their entries independently from 0, per shard).
  static constexpr std::uint32_t kDeltaTierTag = 0x80000000u;
  /// Bits [30:25] of a merged stored id carry the shard index; bits [24:0]
  /// the in-tier stored id (so a shard tier holds at most 2^25 stored
  /// entries).  Resolve merged ids through AppendViewIds / the decode
  /// helpers, never directly.
  static constexpr std::uint32_t kShardShift = 25;
  static constexpr std::uint32_t kStoredIdMask = (1u << kShardShift) - 1;
  static constexpr std::size_t kMaxShards = 64;

  static std::uint32_t TagShard(std::uint32_t tier_tagged_id,
                                std::uint32_t shard) {
    return tier_tagged_id |
           (shard << kShardShift);  // tier bit already in place
  }
  static std::uint32_t ShardOf(std::uint32_t tagged_id) {
    return (tagged_id & ~kDeltaTierTag) >> kShardShift;
  }
  static std::uint32_t StoredIdOf(std::uint32_t tagged_id) {
    return tagged_id & kStoredIdMask;
  }

  IndexSnapshot() = default;
  RDFC_DISALLOW_COPY_AND_ASSIGN(IndexSnapshot);

  std::uint64_t version = 0;
  std::size_t num_views = 0;  // live views visible in this version

  /// One tier per shard; entries are never null (an untouched shard is an
  /// empty ShardTier, shared by every version).
  std::vector<std::shared_ptr<const ShardTier>> shards;

  const rdf::TermDictionary& dict() const { return *dict_ptr; }
  const rdf::TermDictionary* dict_ptr = nullptr;

  std::size_t num_shards() const { return shards.size(); }
  const ShardTier& shard(std::size_t s) const { return *shards[s]; }
  std::size_t num_populated_shards() const;

  /// Probes every populated shard sequentially and merges the results:
  /// contained and unverified sets unioned (stored ids tagged with tier and
  /// shard bits), counters and timings summed, and one shared budget across
  /// every walk — `filter_complete` only if *all* walks completed, so
  /// degraded merged answers still only under-report.
  index::ProbeResult Find(const containment::PreparedProbe& probe,
                          const index::ProbeOptions& options = {}) const;
  /// Convenience overload preparing the probe against this snapshot's dict.
  index::ProbeResult Find(const query::BgpQuery& q,
                          const index::ProbeOptions& options = {}) const;

  /// Find, fanned out across the populated shards on `pool` (DESIGN.md
  /// "Sharded index").  Identical result semantics to Find: the walkers
  /// fork one ProbeBudget::SharedState from options.budget, so the fan-out
  /// spends ONE budget and a mid-fan-out expiry degrades every remaining
  /// walk — the merged answer still only under-reports.
  ///
  /// `preferred_shard` (the probe's own anchor signature % num_shards, when
  /// the caller knows it) is walked first by the calling thread — a walk-
  /// order hint only, never a pruning decision: a containing view can live
  /// in any shard, so every populated shard is always probed.  When at most
  /// one shard is populated, or `pool` is null, or helper submission is
  /// shed, the walk runs inline on the caller ("direct-routed").  The
  /// caller's thread always claims shards too, so the fan-out cannot
  /// deadlock even when the pool is saturated with probes doing the same.
  ///
  /// `max_walkers` caps the fan-out width (caller + helpers); 0 = auto,
  /// which never uses more walkers than the host has hardware threads —
  /// on a single-core host the walk stays inline, because extra walkers
  /// there are pure scheduling overhead on a latency-critical path.
  /// Tests and sanitizer smokes pass an explicit width to force the
  /// parallel machinery regardless of host shape.
  index::ProbeResult FindParallel(const containment::PreparedProbe& probe,
                                  const index::ProbeOptions& options,
                                  util::ThreadPool* pool,
                                  std::size_t preferred_shard = 0,
                                  ProbeFanout* fanout = nullptr,
                                  std::uint32_t max_walkers = 0) const;

  /// Appends the external ids behind a (tier- and shard-tagged) stored id
  /// from a merged ProbeResult, masking tombstoned base ids.  Unsorted
  /// output; the caller dedups once at the end.
  void AppendViewIds(std::uint32_t tagged_id,
                     std::vector<std::uint64_t>* out) const;

  bool IsTombstoned(std::uint64_t external_id) const;

  // Aggregates across shards (the pre-sharding accounting identity
  // `base - tombstones + delta = live` holds on the sums).
  std::size_t num_base_views() const;
  std::size_t num_delta_views() const;
  std::size_t num_tombstones() const;
};

/// Versioned, snapshot-isolated publication of the sharded mv-index
/// (DESIGN.md "Service layer", "Tiered write path", "Sharded index").
///
/// The regime is the one the paper's applications live in: probes vastly
/// outnumber view-set changes, and a probe must never block behind an
/// insert.  Writers batch Insert/Remove intents (StageAdd/StageRemove) and
/// publish a new version in one atomic pointer swing; readers pin a version
/// through a hazard-slot handshake and probe it lock-free.
///
/// The writer keeps view ids, not views.  A view's query lives in exactly
/// one place: the staged batch until it is published, then its shard's
/// delta entry, then (after a compaction) its shard's frozen base entry.
/// Per shard the writer holds only sorted id sets — the base's ids and the
/// pending delta ids and tombstones the next Publish bakes.
///
/// Write path (sharded + tiered): StageAdd routes each view to shard
/// AnchorSignature(view) % num_shards.  Publish rebuilds only the delta
/// tiers of shards whose pending sets changed, re-inserting the published
/// delta's entries that stay plus the staged adds — O(dirty shards' deltas)
/// — and shares every other shard tier by pointer.  A compaction
/// (background task or explicit Refreeze) folds each dirty shard's
/// base+delta into a new frozen base for that shard off the write path and
/// publishes all of them through one swing.
///
/// Threading contract:
///   - Writer side — StageAdd, StageRemove, Publish, RegisterReader,
///     num_retained_versions — is internally serialized by a mutex, but the
///     caller must ALSO be the sole dictionary writer while calling it
///     (StageAdd/Publish intern terms; see rdf::TermDictionary).  The
///     containment service guarantees both with its mutation mutex.
///   - Reader side — Acquire on a registered slot — never takes a lock:
///     one seq_cst store plus the revalidation loop's loads.  Each slot
///     supports one outstanding ReadGuard at a time and is thread-affine by
///     convention (the service maps worker index -> slot index).
///   - Compaction — runs on its own thread and is NOT a dictionary writer:
///     the merge re-inserts only previously-prepared entries, whose
///     canonical variables already exist, so the build touches the
///     dictionary exclusively through lock-free reads (the
///     CanonicalVariable populated-slot fast path) and may overlap staging.
///
/// Memory reclamation (the argument, in full, in DESIGN.md): a reader
/// announces its candidate snapshot in its hazard slot and re-checks the
/// current pointer; the writer publishes the new version first and only then
/// sweeps the slots.  In the seq_cst total order either the reader's
/// announcement precedes the writer's sweep load (the writer sees it and
/// retains the version), or the writer's publication precedes the reader's
/// re-check (the reader observes the new pointer, abandons the stale
/// candidate and retries).  Either way no guard can hold a freed snapshot,
/// and at most `reader slots + 1` versions are ever retained (+1 while a
/// compaction pins its capture).
class IndexManager {
 public:
  explicit IndexManager(rdf::TermDictionary* dict,
                        const index::IndexOptions& options = {},
                        const TierOptions& tier = {});
  ~IndexManager();  // StopCompaction()
  RDFC_DISALLOW_COPY_AND_ASSIGN(IndexManager);

  /// Shard count this manager was configured with (clamped).
  std::size_t num_shards() const { return num_shards_; }

  // ------------------------------------------------------------------
  // Writer side
  // ------------------------------------------------------------------

  /// Stages a view for the next Publish and returns its stable external id.
  /// The view is NOT visible to probes until Publish.  Routed to shard
  /// AnchorSignature(view) % num_shards.
  [[nodiscard]] util::Result<std::uint64_t> StageAdd(query::BgpQuery view)
      RDFC_EXCLUDES(mu_);

  /// Stages removal of a previously added view (NotFound for unknown or
  /// already-removed ids).  Takes effect at the next Publish.
  [[nodiscard]] util::Status StageRemove(std::uint64_t view_id)
      RDFC_EXCLUDES(mu_);

  /// Rebuilds the delta tiers of exactly the shards whose pending sets
  /// changed and publishes the result (sharing every untouched shard tier)
  /// as the new current version; probes in flight keep the version they
  /// pinned.  Transactional: if any staged view fails to index, the error is
  /// returned, the current version stays, and the staged state is untouched
  /// (StageRemove the offender and retry).  Returns the new version number.
  /// O(dirty shards' deltas) — independent of base size and shard count.
  [[nodiscard]] util::Result<std::uint64_t> Publish() RDFC_EXCLUDES(mu_);

  /// Synchronous compaction: folds every shard with a non-empty delta or
  /// tombstone set into a new frozen base for that shard and publishes the
  /// compacted snapshot as a new version (returned).  Waits for any
  /// background compaction first.  No-op (returns the current version) when
  /// no shard has anything to fold.  With checkpoint-on-compaction armed, a
  /// fold also writes a checkpoint.  Safe to call concurrently with
  /// staging/publishing — the builds run off the writer mutex.
  [[nodiscard]] util::Result<std::uint64_t> Refreeze()
      RDFC_EXCLUDES(mu_, compaction_mu_);

  /// Drains and joins the background compaction thread.  Idempotent; called
  /// by the destructor.  After this, only Refreeze() compacts.
  void StopCompaction() RDFC_EXCLUDES(mu_, compaction_mu_);

  /// Registers a hazard slot and returns its index.  Writer-side (serialized
  /// with Publish); call once per reader thread during setup.
  std::size_t RegisterReader() RDFC_EXCLUDES(mu_);

  std::size_t num_live_views() const RDFC_EXCLUDES(mu_);
  /// Staged-but-unpublished intent count (adds + removes); 0 right after
  /// Publish.
  std::size_t num_staged_changes() const RDFC_EXCLUDES(mu_);
  /// Versions currently held alive (current + any pinned by readers).
  /// Bounded by RegisterReader count + 1 (+1 during a compaction).
  std::size_t num_retained_versions() const RDFC_EXCLUDES(mu_);

  /// Per-shard gauges of the current published version (rdfc_stats
  /// --service / rdfc_serve shard reporting).
  struct ShardStats {
    std::size_t views = 0;        // base - tombstones + delta
    std::size_t base_views = 0;   // external ids baked into the frozen base
    std::size_t delta_views = 0;  // views in the pointer-tree delta
    std::size_t tombstones = 0;   // base ids masked as removed
    std::uint64_t refreezes = 0;  // lifetime compactions of this shard
  };

  /// Tier breakdown of the current published version plus the lifetime
  /// compaction count.  The top-level fields aggregate across shards (the
  /// pre-sharding accounting identity holds on the sums); `shards` has the
  /// per-shard split.
  struct TierStats {
    std::size_t base_views = 0;
    std::size_t delta_views = 0;
    std::size_t tombstones = 0;
    std::uint64_t compactions = 0;  // compaction *runs* (each may fold
                                    // several shards)
    std::vector<ShardStats> shards;
  };
  TierStats tier_stats() const RDFC_EXCLUDES(mu_);
  bool compaction_in_flight() const {
    return compaction_in_flight_.load(std::memory_order_acquire);
  }

  /// Test hook, invoked off-lock between a compaction's merge builds and its
  /// publication swing — the window the deterministic interleaving tests
  /// stage and publish into.  Set during single-threaded setup only.
  void set_compaction_hook(std::function<void()> hook) {
    compaction_hook_ = std::move(hook);
  }
  /// Invoked with the wall-clock micros of every completed compaction (the
  /// service routes it into ServiceMetrics).  Set during setup only.
  void set_compaction_listener(std::function<void(double)> listener) {
    compaction_listener_ = std::move(listener);
  }

  // ------------------------------------------------------------------
  // Persistence (writer side; see index/persistence.h for the format)
  // ------------------------------------------------------------------

  /// Writes a checkpoint: folds every shard with a delta or tombstones (as
  /// Refreeze does), then saves each shard's frozen base as a blob
  /// `<path>.base.<shard>.<generation>` plus a manifest at `path` holding
  /// the journal sequence watermark W the bases cover (index/persistence.h).
  /// It holds every publish acknowledged before the call; later publishes
  /// are durable only through the journal.  Once the manifest commits, the
  /// journal is rebased through W (records <= W dropped, later ones kept);
  /// a crash in between is harmless, as replay skips records by W.  Only
  /// blobs the last checkpoint at `path` did not commit are written, and
  /// the ones it superseded are deleted.  Before this manager's first
  /// checkpoint at a `path` it neither restored nor committed, the manifest
  /// already there is read and every shard generation is raised above the
  /// one it names, so no new blob overwrites a committed one.  The I/O runs
  /// off the writer mutex: probes and publishes continue, compactions wait.
  [[nodiscard]] util::Status SaveTiered(const std::string& path)
      RDFC_EXCLUDES(mu_, compaction_mu_);

  /// Restores a checkpoint into this manager and publishes it as the next
  /// version: the bases become the shards' tiers, and the manifest's
  /// watermark becomes the sequence EnableJournal replays after.  The
  /// manager must be fresh (version 0, nothing staged), its dictionary
  /// freshly constructed, and its configured shard count must equal the
  /// image's (shard routing is baked into the frozen bases, so a restore
  /// cannot re-shard; InvalidArgument otherwise).
  [[nodiscard]] util::Status RestoreTiered(const std::string& path)
      RDFC_EXCLUDES(mu_);

  /// Opens (creating if absent) the write-ahead journal at `options.path`,
  /// replays every intact record past the restored checkpoint's watermark
  /// (all of them without a RestoreTiered) over the current state,
  /// publishes the replayed state as one version, and arms journaling: from
  /// here every Publish appends its batch to the journal *before* the
  /// snapshot swing, and a failed append aborts the publish
  /// transactionally.  A journal that does not continue right after the
  /// watermark, a replayed add of an id the bases hold or the replay saw
  /// before, or a replayed remove of an id that is not live means the
  /// journal and the checkpoint disagree, and fails with Internal.
  /// `checkpoint_path` (optional) arms checkpoint-on-compaction: after each
  /// compaction that folds anything, a checkpoint is written there, which
  /// rebases the journal (DESIGN.md "Durability").
  ///
  /// Call once, during startup, after any RestoreTiered; the caller must be
  /// the sole dictionary writer for the duration (replay interns terms).
  [[nodiscard]] util::Status EnableJournal(
      const index::JournalOptions& options, std::string checkpoint_path = "")
      RDFC_EXCLUDES(mu_);

  /// Snapshot of the journal counters (zero-initialised stats when no
  /// journal is enabled).
  index::JournalStats journal_stats() const RDFC_EXCLUDES(mu_);
  bool journal_enabled() const RDFC_EXCLUDES(mu_);

  // ------------------------------------------------------------------
  // Reader side
  // ------------------------------------------------------------------

  /// Pins the current snapshot for the guard's lifetime.  Lock-free; see the
  /// class comment.  One outstanding guard per slot.
  class ReadGuard {
   public:
    ReadGuard(ReadGuard&& other) noexcept
        : slot_(std::exchange(other.slot_, nullptr)),
          snapshot_(std::exchange(other.snapshot_, nullptr)) {}
    ReadGuard& operator=(ReadGuard&&) = delete;
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;
    ~ReadGuard() { Release(); }

    const IndexSnapshot& operator*() const { return *snapshot_; }
    const IndexSnapshot* operator->() const { return snapshot_; }

    /// Unpins early.  Idempotent (and a no-op on a moved-from guard); the
    /// destructor calls it too.
    void Release();

   private:
    friend class IndexManager;
    struct Slot;
    ReadGuard(const Slot* slot, const IndexSnapshot* snapshot)
        : slot_(slot), snapshot_(snapshot) {}

    const Slot* slot_;
    const IndexSnapshot* snapshot_;
  };

  ReadGuard Acquire(std::size_t reader_slot);

  /// Version a probe submitted right now would see.  Reader-side.
  std::uint64_t current_version() const {
    return current_.load(std::memory_order_acquire)->version;
  }

 private:
  /// Writer-side mirror of one shard's tier state: the shared base, its id
  /// set, the pending delta/tombstone id sets the *next* Publish would bake
  /// (sorted), and the tier published in the current version.  Staging
  /// updates the pending sets incrementally; a compaction swing reconciles
  /// them against the new base by set algebra.
  struct ShardState {
    std::shared_ptr<const index::FrozenMvIndex> base;
    std::shared_ptr<const std::vector<std::uint64_t>> base_ids;
    std::vector<std::uint64_t> pending_delta_ids;
    std::vector<std::uint64_t> pending_tombstones;
    /// The tier the current published snapshot holds for this shard; Publish
    /// shares it when the pending sets match its id sets, and otherwise
    /// rebuilds its delta from the entries that stay plus the staged adds.
    std::shared_ptr<const ShardTier> published;
    std::uint64_t generation = 0;  // refreezes (persistence blob naming)
  };

  /// True when shard `s`'s pending sets differ from its published tier (the
  /// next Publish must rebuild that shard's delta tier).
  bool ShardDirtyLocked(std::size_t s) const RDFC_REQUIRES(mu_);

  /// Publish body.  `with_journal` is false only for the internal publish
  /// that makes journal-replayed state visible (those ops came *from* the
  /// journal and must not be re-appended).
  [[nodiscard]] util::Result<std::uint64_t> PublishBatchLocked(
      bool with_journal) RDFC_REQUIRES(mu_);

  /// StageAdd / StageRemove bodies, shared with journal replay (which
  /// stages the journalled ids instead of fresh ones).
  void StageAddLocked(std::uint64_t id, query::BgpQuery view)
      RDFC_REQUIRES(mu_);
  [[nodiscard]] util::Status StageRemoveLocked(std::uint64_t id)
      RDFC_REQUIRES(mu_);

  /// Applies one replayed journal batch to the staged state (no publish).
  [[nodiscard]] util::Status ApplyReplay(const index::JournalBatch& batch)
      RDFC_EXCLUDES(mu_);

  /// Sweeps the hazard slots and frees every retired version no reader (and
  /// no in-flight compaction) has pinned.
  void ReclaimLocked() RDFC_REQUIRES(mu_);

  /// Publishes `next` as the new current version (swing + reclaim).
  std::uint64_t SwingLocked(std::unique_ptr<const IndexSnapshot> next)
      RDFC_REQUIRES(mu_);

  /// Schedules a background compaction when the policy triggers fire.
  void MaybeScheduleCompactionLocked() RDFC_REQUIRES(mu_);

  /// One full compaction run: capture, off-lock per-shard merge + freeze of
  /// every dirty shard, one swing.  Records the capture's journal sequence
  /// as base_watermark_ once the bases hold the captured state.  With
  /// `checkpoint_after`, a run that folds anything then writes the
  /// checkpoint-on-compaction image (when armed).
  [[nodiscard]] util::Result<std::uint64_t> RunCompaction(
      bool checkpoint_after) RDFC_EXCLUDES(mu_) RDFC_REQUIRES(compaction_mu_);

  /// Writes the current bases and base_watermark_ as a checkpoint at
  /// `path`, then rebases the journal through the watermark (see
  /// SaveTiered).  Holding compaction_mu_ keeps the bases and generations
  /// fixed while the manifest is read and the blobs are written off mu_.
  [[nodiscard]] util::Status WriteCheckpoint(const std::string& path)
      RDFC_EXCLUDES(mu_) RDFC_REQUIRES(compaction_mu_);

  /// Interned into by StageAdd/Publish; the dereference (not the pointer)
  /// rides the writer mutex — the dictionary's single-writer side.
  rdf::TermDictionary* dict_ RDFC_PT_GUARDED_BY(mu_);
  index::IndexOptions options_;
  TierOptions tier_;
  const std::size_t num_shards_;  // tier_.num_shards clamped

  mutable util::Mutex mu_;  // writer-side state below
  std::size_t num_live_views_ RDFC_GUARDED_BY(mu_) = 0;
  /// Ids ascend in stage order: every id below this one was staged, restored
  /// or replayed before.
  std::uint64_t next_view_id_ RDFC_GUARDED_BY(mu_) = 1;
  std::uint64_t next_version_ RDFC_GUARDED_BY(mu_) = 0;
  /// Retained versions (current + reader-pinned).
  std::vector<std::unique_ptr<const IndexSnapshot>> versions_
      RDFC_GUARDED_BY(mu_);

  /// Intents staged since the last Publish, in stage order; adds hold their
  /// view, the only copy until the publish indexes it.  Publish appends this
  /// batch to the journal as-is and then empties it.
  index::JournalBatch staged_ RDFC_GUARDED_BY(mu_);
  /// Write-ahead journal; null until EnableJournal.  All access rides the
  /// writer mutex (the journal itself is not thread-safe).
  std::unique_ptr<index::WriteAheadJournal> journal_ RDFC_GUARDED_BY(mu_);
  /// Checkpoint-on-compaction target ("" = off); set once by EnableJournal.
  std::string checkpoint_path_ RDFC_GUARDED_BY(mu_);
  /// Journal sequence the shard bases cover: they hold exactly the effect of
  /// every batch with sequence <= this.  Set at each compaction capture (the
  /// journal's last sequence) once the bases match it, and by RestoreTiered.
  std::uint64_t base_watermark_ RDFC_GUARDED_BY(mu_) = 0;
  /// Path and per-shard blobs of the last checkpoint this manager committed
  /// or restored, so the next checkpoint there rewrites only changed blobs
  /// and deletes exactly the superseded ones.
  std::string committed_path_ RDFC_GUARDED_BY(mu_);
  std::vector<index::TieredBlob> committed_blobs_ RDFC_GUARDED_BY(mu_);

  /// One writer-side state per shard (size num_shards_).
  std::vector<ShardState> shards_ RDFC_GUARDED_BY(mu_);
  /// Per-shard lifetime refreeze counters (tier_stats).
  std::vector<std::uint64_t> shard_refreezes_ RDFC_GUARDED_BY(mu_);

  // Compaction machinery.  Lock order: compaction_mu_ before mu_, and mu_ is
  // never held while acquiring compaction_mu_.
  util::Mutex compaction_mu_;  // serializes compaction runs (bg + Refreeze)
  std::unique_ptr<util::ThreadPool> compaction_pool_;  // 1 thread; may be null
  std::atomic<bool> compaction_in_flight_{false};
  /// The capture a running compaction merges from; ReclaimLocked treats it
  /// as pinned so publishes during the build cannot free it.
  const IndexSnapshot* compaction_pin_ RDFC_GUARDED_BY(mu_) = nullptr;
  std::uint64_t compactions_run_ RDFC_GUARDED_BY(mu_) = 0;
  std::function<void()> compaction_hook_;
  std::function<void(double)> compaction_listener_;

  // Reader slots: appended under mu_ (RegisterReader), accessed lock-free by
  // their owning reader thread and swept by the writer.
  util::SnapshotVector<ReadGuard::Slot> slots_;

  std::atomic<const IndexSnapshot*> current_{nullptr};
};

/// One hazard slot, cache-line padded so readers on different slots never
/// share a line.  nullptr = the reader holds no snapshot.
struct alignas(64) IndexManager::ReadGuard::Slot {
  mutable std::atomic<const IndexSnapshot*> hazard{nullptr};
};

}  // namespace service
}  // namespace rdfc
