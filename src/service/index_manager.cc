#include "service/index_manager.h"

#include <algorithm>
#include <thread>
#include <tuple>
#include <unordered_set>
#include <utility>

#include "index/persistence.h"
#include "query/analysis.h"
#include "util/budget.h"
#include "util/failpoint.h"
#include "util/timer.h"

namespace rdfc {
namespace service {

namespace {

using IdSet = std::vector<std::uint64_t>;  // sorted external view ids

/// True when `value` is in the sorted vector (tombstone/base-id membership).
bool SortedContains(const IdSet& sorted, std::uint64_t value) {
  return std::binary_search(sorted.begin(), sorted.end(), value);
}

/// The id set behind a shared pointer that is null when the set is empty.
const IdSet& IdsOf(const std::shared_ptr<const IdSet>& ids) {
  static const IdSet kNoIds;
  return ids != nullptr ? *ids : kNoIds;
}

/// The ids a shard shows: (base - tombstones) ∪ delta.
IdSet VisibleIds(const IdSet& base, const IdSet& tombstones,
                 const IdSet& delta) {
  IdSet unmasked, visible;
  std::set_difference(base.begin(), base.end(), tombstones.begin(),
                      tombstones.end(), std::back_inserter(unmasked));
  std::set_union(unmasked.begin(), unmasked.end(), delta.begin(), delta.end(),
                 std::back_inserter(visible));
  return visible;
}

/// Re-expresses a shard's (base, tombstones, delta) ids against `frozen`,
/// the ids a compaction baked into its new base, as (delta, tombstones):
/// views the fold did not see stay in the delta, and folded views no longer
/// visible become tombstones.  The fold read a state no newer than this
/// one, so `frozen` holds every visible base id.
std::pair<IdSet, IdSet> Reconcile(const IdSet& frozen, const IdSet& base,
                                  const IdSet& tombstones,
                                  const IdSet& delta) {
  std::pair<IdSet, IdSet> out;
  std::set_difference(delta.begin(), delta.end(), frozen.begin(),
                      frozen.end(), std::back_inserter(out.first));
  const IdSet visible = VisibleIds(base, tombstones, delta);
  std::set_difference(frozen.begin(), frozen.end(), visible.begin(),
                      visible.end(), std::back_inserter(out.second));
  return out;
}

/// Re-inserts into `into` every live entry of `tier` (a delta MvIndex or a
/// frozen base) under each external id `keep` accepts.  The entries were
/// prepared against the same dictionary, so the inserts never intern.
template <typename Tier, typename Keep>
util::Status InsertTierEntries(const Tier& tier, const Keep& keep,
                               index::MvIndex* into) {
  for (std::uint32_t id = 0; id < tier.num_entries(); ++id) {
    if (!tier.alive(id)) continue;
    for (std::uint64_t ext : tier.external_ids(id)) {
      if (!keep(ext)) continue;
      RDFC_RETURN_NOT_OK(into->Insert(tier.entry(id).canonical, ext).status());
    }
  }
  return util::Status::OK();
}

void MergeProbeCounters(const index::ProbeResult& from,
                        index::ProbeResult* into) {
  into->candidates += from.candidates;
  into->np_checks += from.np_checks;
  into->states_explored += from.states_explored;
  into->filter_micros += from.filter_micros;
  into->verify_micros += from.verify_micros;
  into->filter_complete = into->filter_complete && from.filter_complete;
}

/// Folds one shard's partial result into the merged snapshot result, adding
/// the shard bits to every tier-tagged stored id.
void MergeShardResult(std::size_t shard, index::ProbeResult&& partial,
                      index::ProbeResult* merged) {
  const std::uint32_t s = static_cast<std::uint32_t>(shard);
  for (index::ProbeMatch& m : partial.contained) {
    RDFC_DCHECK((m.stored_id & ~IndexSnapshot::kDeltaTierTag) <=
                IndexSnapshot::kStoredIdMask);
    m.stored_id = IndexSnapshot::TagShard(m.stored_id, s);
    merged->contained.push_back(std::move(m));
  }
  for (std::uint32_t id : partial.unverified) {
    RDFC_DCHECK((id & ~IndexSnapshot::kDeltaTierTag) <=
                IndexSnapshot::kStoredIdMask);
    merged->unverified.push_back(IndexSnapshot::TagShard(id, s));
  }
  MergeProbeCounters(partial, merged);
}

}  // namespace

// ----------------------------------------------------------------------
// ShardTier: one shard's merged two-tier probe
// ----------------------------------------------------------------------

index::ProbeResult ShardTier::Find(const containment::PreparedProbe& probe,
                                   const index::ProbeOptions& options) const {
  index::ProbeResult merged;
  if (base != nullptr) {
    merged = base->FindContaining(probe, options);
    if (!tombstones.empty()) {
      // Drop base answers whose every external id is tombstoned: the entry
      // has been removed wholesale and must not surface even as unverified.
      // Partially-tombstoned entries stay; AppendViewIds masks per id.
      auto fully_dead = [this](std::uint32_t stored_id) {
        for (std::uint64_t ext : base->external_ids(stored_id)) {
          if (!SortedContains(tombstones, ext)) return false;
        }
        return true;
      };
      std::erase_if(merged.contained, [&](const index::ProbeMatch& m) {
        return fully_dead(m.stored_id);
      });
      std::erase_if(merged.unverified, fully_dead);
    }
  }
  if (delta != nullptr) {
    // Same options object, so the two walks share one budget: if the base
    // walk exhausted it, the delta walk degrades immediately (per-vertex
    // poll) and the ANDed filter_complete reports the truncation — the
    // merged answer under-reports, never over-reports.
    index::ProbeResult d = delta->FindContaining(probe, options);
    for (index::ProbeMatch& m : d.contained) {
      RDFC_DCHECK((m.stored_id & IndexSnapshot::kDeltaTierTag) == 0);
      m.stored_id |= IndexSnapshot::kDeltaTierTag;
      merged.contained.push_back(std::move(m));
    }
    for (std::uint32_t id : d.unverified) {
      merged.unverified.push_back(id | IndexSnapshot::kDeltaTierTag);
    }
    MergeProbeCounters(d, &merged);
  }
  return merged;
}

// ----------------------------------------------------------------------
// IndexSnapshot: the sharded probe
// ----------------------------------------------------------------------

std::size_t IndexSnapshot::num_populated_shards() const {
  std::size_t populated = 0;
  for (const auto& tier : shards) {
    if (!tier->empty()) ++populated;
  }
  return populated;
}

index::ProbeResult IndexSnapshot::Find(
    const containment::PreparedProbe& probe,
    const index::ProbeOptions& options) const {
  index::ProbeResult merged;
  // Every shard walk reuses the same options object, so the whole sweep
  // shares the caller's one budget — identical degradation semantics to the
  // pre-sharding single-tree walk.
  for (std::size_t s = 0; s < shards.size(); ++s) {
    if (shards[s]->empty()) continue;
    MergeShardResult(s, shards[s]->Find(probe, options), &merged);
  }
  return merged;
}

index::ProbeResult IndexSnapshot::Find(const query::BgpQuery& q,
                                       const index::ProbeOptions& options) const {
  return Find(containment::PrepareProbe(q, *dict_ptr), options);
}

namespace {

/// Shared frame of one fanned-out probe.  Heap-allocated (shared_ptr held by
/// every helper task) because a helper may dequeue *after* the fan-out
/// caller has already merged and returned: such a late helper must still be
/// able to load `next`, see no work left, and exit without touching the
/// caller-frame pointers below — which are only dereferenced for claimed
/// shards, and the caller does not return before every claimed walk is done.
struct FanoutJob {
  const IndexSnapshot* snapshot = nullptr;
  const containment::PreparedProbe* probe = nullptr;
  const index::ProbeOptions* options = nullptr;
  util::ProbeBudget::SharedState* shared = nullptr;
  std::vector<std::size_t> order;  // populated shards, preferred first
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::vector<index::ProbeResult> results;  // one slot per order entry
};

/// Claims shards off `job.order` until none remain.  Run by the caller and
/// by every admitted pool helper; the claim counter makes the fan-out
/// deadlock-free — even if no helper ever runs (saturated pool), the caller
/// claims and walks every shard itself.
void RunFanout(FanoutJob& job) {
  for (;;) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.order.size()) return;
    // Each walker forks its own budget off the shared pool: thread-local
    // mutable state, pooled step count and expiry (util::ProbeBudget).
    util::ProbeBudget walker = util::ProbeBudget::Forked(job.shared);
    index::ProbeOptions opts = *job.options;
    opts.budget = &walker;
    job.results[i] =
        job.snapshot->shard(job.order[i]).Find(*job.probe, opts);
    walker.Flush();
    job.done.fetch_add(1, std::memory_order_release);
  }
}

}  // namespace

index::ProbeResult IndexSnapshot::FindParallel(
    const containment::PreparedProbe& probe,
    const index::ProbeOptions& options, util::ThreadPool* pool,
    std::size_t preferred_shard, ProbeFanout* fanout,
    std::uint32_t max_walkers) const {
  std::vector<std::size_t> order;
  order.reserve(shards.size());
  for (std::size_t s = 0; s < shards.size(); ++s) {
    if (!shards[s]->empty()) order.push_back(s);
  }
  // The preferred shard (the probe's own routing signature) goes first: the
  // calling thread claims it immediately, so the walk most likely to produce
  // the answers starts with zero handoff latency.  Ordering only — every
  // populated shard is still walked (a containing view can live anywhere).
  if (preferred_shard < shards.size()) {
    auto it = std::find(order.begin(), order.end(), preferred_shard);
    if (it != order.end()) std::iter_swap(order.begin(), it);
  }
  if (fanout != nullptr) {
    fanout->shards_probed = static_cast<std::uint32_t>(order.size());
    fanout->parallel_walkers = 1;
  }
  // Width: never more walkers than the host has hardware threads — extra
  // walkers past that point cannot run in parallel, so they only add submit
  // and wakeup overhead to a latency-critical path (on a single-core host
  // the walk stays fully inline).  An explicit max_walkers overrides the
  // host-derived cap for tests and sanitizer smokes.
  std::size_t width = max_walkers;
  if (width == 0) {
    static const std::size_t hw = [] {
      const unsigned n = std::thread::hardware_concurrency();  // NOLINT(raw-concurrency): introspection, no thread spawned
      return n == 0 ? std::size_t{1} : static_cast<std::size_t>(n);
    }();
    width = hw;
  }
  if (order.size() <= 1 || pool == nullptr || width <= 1) {
    // Direct-routed: at most one populated shard (or no pool to fan out on,
    // or a host where parallel walkers cannot help) — the inline sequential
    // walk already has the right semantics.
    return Find(probe, options);
  }

  // One budget across the fan-out: fork a shared pool off the caller's
  // budget (or an unlimited stand-in), then absorb it back at the end so the
  // caller's budget reflects the whole probe's spend and verdict.
  util::ProbeBudget unlimited;
  util::ProbeBudget* origin =
      options.budget != nullptr ? options.budget : &unlimited;
  util::ProbeBudget::SharedState shared(*origin);

  auto job = std::make_shared<FanoutJob>();
  job->snapshot = this;
  job->probe = &probe;
  job->options = &options;
  job->shared = &shared;
  job->order = std::move(order);
  job->results.resize(job->order.size());

  // Offer one helper per remaining shard, up to the width cap; shedding is
  // graceful — whatever the pool declines, the caller's own claim loop
  // picks up.
  std::uint32_t helpers = 0;
  for (std::size_t i = 0;
       i + 1 < job->order.size() && helpers + 1 < width; ++i) {
    const util::Status admitted = pool->TrySubmit(
        [job](std::size_t /*worker_index*/) { RunFanout(*job); });
    if (!admitted.ok()) break;
    ++helpers;
  }
  RunFanout(*job);
  // The caller ran out of shards to claim; helpers may still be finishing
  // theirs.  Claimed walks are bounded by the shared budget, so this wait is
  // bounded too.
  const std::size_t total = job->order.size();
  while (job->done.load(std::memory_order_acquire) < total) {
    std::this_thread::yield();
  }

  index::ProbeResult merged;
  for (std::size_t i = 0; i < total; ++i) {
    MergeShardResult(job->order[i], std::move(job->results[i]), &merged);
  }
  origin->Absorb(shared);
  if (fanout != nullptr) fanout->parallel_walkers = 1 + helpers;
  return merged;
}

void IndexSnapshot::AppendViewIds(std::uint32_t tagged_id,
                                  std::vector<std::uint64_t>* out) const {
  const ShardTier& tier = *shards[ShardOf(tagged_id)];
  const std::uint32_t stored = StoredIdOf(tagged_id);
  if ((tagged_id & kDeltaTierTag) != 0) {
    const auto& ids = tier.delta->external_ids(stored);
    out->insert(out->end(), ids.begin(), ids.end());
    return;
  }
  for (std::uint64_t ext : tier.base->external_ids(stored)) {
    if (!SortedContains(tier.tombstones, ext)) out->push_back(ext);
  }
}

bool IndexSnapshot::IsTombstoned(std::uint64_t external_id) const {
  for (const auto& tier : shards) {
    if (SortedContains(tier->tombstones, external_id)) return true;
  }
  return false;
}

std::size_t IndexSnapshot::num_base_views() const {
  std::size_t total = 0;
  for (const auto& tier : shards) total += tier->num_base_views();
  return total;
}

std::size_t IndexSnapshot::num_delta_views() const {
  std::size_t total = 0;
  for (const auto& tier : shards) total += tier->num_delta_views();
  return total;
}

std::size_t IndexSnapshot::num_tombstones() const {
  std::size_t total = 0;
  for (const auto& tier : shards) total += tier->num_tombstones();
  return total;
}

// ----------------------------------------------------------------------
// IndexManager: writer side
// ----------------------------------------------------------------------

IndexManager::IndexManager(rdf::TermDictionary* dict,
                           const index::IndexOptions& options,
                           const TierOptions& tier)
    : dict_(dict),
      options_(options),
      tier_(tier),
      num_shards_(std::clamp<std::size_t>(tier.num_shards, 1,
                                          IndexSnapshot::kMaxShards)) {
  // Publish an empty version 0 so Acquire always has a snapshot to pin —
  // readers never need a "not started yet" branch.  Every shard starts as
  // the same shared empty tier (immutable, so sharing is safe); bases
  // materialise at each shard's first compaction.
  auto empty_tier = std::make_shared<const ShardTier>();
  shards_.resize(num_shards_);
  shard_refreezes_.assign(num_shards_, 0);
  for (ShardState& state : shards_) state.published = empty_tier;
  auto initial = std::make_unique<IndexSnapshot>();
  initial->version = next_version_++;
  initial->dict_ptr = dict_;
  initial->shards.assign(num_shards_, empty_tier);
  current_.store(initial.get(), std::memory_order_seq_cst);
  versions_.push_back(std::move(initial));
  if (tier_.background_compaction) {
    util::ThreadPool::Options pool_options;
    pool_options.num_threads = 1;
    // Room for one queued run behind the running one; the in-flight flag
    // keeps the scheduler from piling more on.
    pool_options.queue_capacity = 2;
    compaction_pool_ = std::make_unique<util::ThreadPool>(pool_options);
  }
}

IndexManager::~IndexManager() { StopCompaction(); }

void IndexManager::StopCompaction() {
  if (compaction_pool_ != nullptr) compaction_pool_->Shutdown();
}

util::Result<std::uint64_t> IndexManager::StageAdd(query::BgpQuery view) {
  if (view.empty()) {
    return util::Status::InvalidArgument("cannot index an empty view");
  }
  util::MutexLock lock(&mu_);
  const std::uint64_t id = next_view_id_;
  StageAddLocked(id, std::move(view));
  return id;
}

void IndexManager::StageAddLocked(std::uint64_t id, query::BgpQuery view) {
  // The routing key: dictionary-independent, so it agrees with the
  // signature the network front end computed for batch admission and with
  // whatever dictionary a persisted image is restored into.
  ShardState& state =
      shards_[query::AnchorSignature(view, *dict_) % num_shards_];
  // `id` is at least next_view_id_ (replay refuses any other), so it is the
  // largest id yet and appending keeps the set sorted.
  state.pending_delta_ids.push_back(id);
  staged_.ops.push_back({index::JournalOp::Kind::kAdd, id, std::move(view)});
  next_view_id_ = id + 1;
  ++num_live_views_;
}

util::Status IndexManager::StageRemove(std::uint64_t view_id) {
  util::MutexLock lock(&mu_);
  return StageRemoveLocked(view_id);
}

util::Status IndexManager::StageRemoveLocked(std::uint64_t view_id) {
  // A live view sits in exactly one shard: in its pending delta, or in its
  // base and not yet tombstoned.  There are at most kMaxShards shards, so
  // they are searched rather than indexed by id.
  for (ShardState& state : shards_) {
    IdSet& delta = state.pending_delta_ids;
    IdSet& tombstones = state.pending_tombstones;
    auto pos = std::lower_bound(delta.begin(), delta.end(), view_id);
    auto tomb = std::lower_bound(tombstones.begin(), tombstones.end(), view_id);
    if (pos != delta.end() && *pos == view_id) {
      // A delta-tier (or still-staged) removal drops out of the next build.
      delta.erase(pos);
    } else if (SortedContains(IdsOf(state.base_ids), view_id) &&
               (tomb == tombstones.end() || *tomb != view_id)) {
      // A base-tier removal becomes a tombstone at the shard's next Publish.
      tombstones.insert(tomb, view_id);
    } else {
      continue;
    }
    --num_live_views_;
    staged_.ops.push_back({index::JournalOp::Kind::kRemove, view_id, {}});
    return util::Status::OK();
  }
  return util::Status::NotFound("unknown or already-removed view id " +
                                std::to_string(view_id));
}

bool IndexManager::ShardDirtyLocked(std::size_t s) const {
  const ShardState& state = shards_[s];
  return state.base != state.published->base ||
         state.pending_delta_ids != state.published->delta_view_ids ||
         state.pending_tombstones != state.published->tombstones;
}

util::Result<std::uint64_t> IndexManager::Publish() {
  util::MutexLock lock(&mu_);
  return PublishBatchLocked(/*with_journal=*/true);
}

util::Result<std::uint64_t> IndexManager::PublishBatchLocked(
    bool with_journal) {
  // Rebuild only the dirty shards' tiers, into temporaries first so an
  // abort (bad view or injected failpoint) leaves both the published chain
  // and the staged state untouched.  Untouched shards ride along by
  // pointer, which is what makes Publish O(dirty shards' staged views).
  std::vector<std::pair<std::size_t, std::shared_ptr<const ShardTier>>>
      rebuilt;
  for (std::size_t s = 0; s < num_shards_; ++s) {
    if (!ShardDirtyLocked(s)) continue;
    const ShardState& state = shards_[s];
    auto tier = std::make_shared<ShardTier>();
    tier->base = state.base;
    tier->base_view_ids = state.base_ids;
    tier->tombstones = state.pending_tombstones;
    if (!state.pending_delta_ids.empty()) {
      // A pending delta id is in the published delta or a staged add, and
      // staged ids are the larger, so this order inserts in id order.
      auto delta = std::make_unique<index::MvIndex>(dict_, options_);
      auto pending = [&state](std::uint64_t id) {
        return SortedContains(state.pending_delta_ids, id);
      };
      if (state.published->delta != nullptr) {
        RDFC_RETURN_NOT_OK(
            InsertTierEntries(*state.published->delta, pending, delta.get()));
      }
      for (const index::JournalOp& op : staged_.ops) {
        if (op.kind != index::JournalOp::Kind::kAdd || !pending(op.view_id)) {
          continue;
        }
        auto outcome = delta->Insert(op.view, op.view_id);
        if (!outcome.ok()) {
          // Abort the transaction: the current version stays published and
          // the staged state is untouched, so the caller can StageRemove the
          // offending view and Publish again.
          return util::Status(outcome.status().code(),
                              "publish aborted by view " +
                                  std::to_string(op.view_id) + ": " +
                                  outcome.status().message());
        }
      }
      tier->delta = std::move(delta);
      tier->delta_view_ids = state.pending_delta_ids;
    }
    rebuilt.emplace_back(s, std::move(tier));
  }
  if (RDFC_FAILPOINT("publish.swing")) {
    // Fires after the new tiers are fully built but before they become
    // reachable: the transactional contract (current version unchanged,
    // staged state intact) must hold on this path like any other abort.
    return util::Status::Internal("failpoint publish.swing");
  }
  if (with_journal && journal_ != nullptr) {
    // Write-ahead: the batch record must be durable (per the fsync policy)
    // before the swing makes it visible — an acknowledged publish is exactly
    // one that reached the journal.  A failed append aborts like any other
    // publish error: nothing swings, the staged state stays, the caller can
    // retry the same batch.  An empty batch still journals one record, so
    // the journal sequence counts acknowledged publishes one-for-one.  A
    // staged add that was staged-removed again is journalled too; replay
    // nets it out.
    staged_.sequence = journal_->next_sequence();
    staged_.version = next_version_;
    RDFC_RETURN_NOT_OK(journal_->Append(staged_, *dict_));
  }
  auto next = std::make_unique<IndexSnapshot>();
  next->version = next_version_;
  next->dict_ptr = dict_;
  next->shards.reserve(num_shards_);
  for (const ShardState& state : shards_) {
    next->shards.push_back(state.published);
  }
  for (auto& [s, tier] : rebuilt) {
    next->shards[s] = tier;
    shards_[s].published = std::move(tier);
  }
  next->num_views = num_live_views_;
  // Assigned, not cleared, so a large batch's storage is released too.
  staged_ = index::JournalBatch();
  const std::uint64_t version = SwingLocked(std::move(next));
  MaybeScheduleCompactionLocked();
  return version;
}

std::uint64_t IndexManager::SwingLocked(
    std::unique_ptr<const IndexSnapshot> next) {
  ++next_version_;
  const IndexSnapshot* published = next.get();
  versions_.push_back(std::move(next));
  current_.store(published, std::memory_order_seq_cst);
  ReclaimLocked();
  return published->version;
}

std::size_t IndexManager::RegisterReader() {
  util::MutexLock lock(&mu_);
  const std::size_t slot = slots_.size();
  slots_.EnsureSize(slot + 1);
  return slot;
}

std::size_t IndexManager::num_live_views() const {
  util::MutexLock lock(&mu_);
  return num_live_views_;
}

std::size_t IndexManager::num_staged_changes() const {
  util::MutexLock lock(&mu_);
  return staged_.ops.size();
}

std::size_t IndexManager::num_retained_versions() const {
  util::MutexLock lock(&mu_);
  return versions_.size();
}

IndexManager::TierStats IndexManager::tier_stats() const {
  util::MutexLock lock(&mu_);
  const IndexSnapshot* cur = current_.load(std::memory_order_seq_cst);
  TierStats stats;
  stats.compactions = compactions_run_;
  stats.shards.resize(num_shards_);
  for (std::size_t s = 0; s < num_shards_; ++s) {
    const ShardTier& tier = cur->shard(s);
    ShardStats& out = stats.shards[s];
    out.base_views = tier.num_base_views();
    out.delta_views = tier.num_delta_views();
    out.tombstones = tier.num_tombstones();
    out.views = tier.num_views();
    out.refreezes = shard_refreezes_[s];
    stats.base_views += out.base_views;
    stats.delta_views += out.delta_views;
    stats.tombstones += out.tombstones;
  }
  return stats;
}

void IndexManager::ReclaimLocked() {
  const IndexSnapshot* live = current_.load(std::memory_order_seq_cst);
  std::unordered_set<const IndexSnapshot*> pinned;
  pinned.insert(live);
  if (compaction_pin_ != nullptr) pinned.insert(compaction_pin_);
  const std::size_t num_slots = slots_.size();
  for (std::size_t i = 0; i < num_slots; ++i) {
    const IndexSnapshot* hazard =
        slots_.At(i).hazard.load(std::memory_order_seq_cst);
    if (hazard != nullptr) pinned.insert(hazard);
  }
  std::erase_if(versions_,
                [&pinned](const std::unique_ptr<const IndexSnapshot>& v) {
                  return pinned.count(v.get()) == 0;
                });
}

// ----------------------------------------------------------------------
// Compaction
// ----------------------------------------------------------------------

void IndexManager::MaybeScheduleCompactionLocked() {
  if (compaction_pool_ == nullptr) return;
  if (compaction_in_flight_.load(std::memory_order_acquire)) return;
  const IndexSnapshot* cur = current_.load(std::memory_order_seq_cst);
  const std::size_t pending = cur->num_delta_views() + cur->num_tombstones();
  bool trigger = tier_.compact_min_delta_views > 0 &&
                 pending >= tier_.compact_min_delta_views;
  if (!trigger && tier_.compact_min_delta_fraction > 0) {
    const std::size_t base_live = cur->num_base_views();
    trigger = base_live > 0 &&
              static_cast<double>(pending) >=
                  tier_.compact_min_delta_fraction *
                      static_cast<double>(base_live);
  }
  if (!trigger) return;
  compaction_in_flight_.store(true, std::memory_order_release);
  const util::Status submitted = compaction_pool_->TrySubmit(
      [this](std::size_t /*worker_index*/) {
        {
          util::MutexLock serial(&compaction_mu_);
          // A failed run (e.g. an injected compact.swing abort) is dropped
          // on the floor by design: the policy re-triggers at the next
          // Publish and the published state is untouched either way.
          (void)RunCompaction(/*checkpoint_after=*/true);
        }
        compaction_in_flight_.store(false, std::memory_order_release);
      });
  if (!submitted.ok()) {
    compaction_in_flight_.store(false, std::memory_order_release);
  }
}

util::Result<std::uint64_t> IndexManager::Refreeze() {
  util::MutexLock serial(&compaction_mu_);
  return RunCompaction(/*checkpoint_after=*/true);
}

util::Result<std::uint64_t> IndexManager::RunCompaction(
    bool checkpoint_after) {
  util::Timer timer;
  // --- Capture: pin the current snapshot and pick the dirty shards — the
  // ones with anything to fold (a delta or tombstones).  Only those shards
  // are rebuilt; the rest ride into the compacted snapshot by pointer.  The
  // journal's last sequence is the capture's watermark: every record up to
  // it is in the captured snapshot (append precedes swing, both under mu_).
  const IndexSnapshot* captured = nullptr;
  std::vector<std::size_t> dirty;
  std::uint64_t capture_watermark = 0;
  std::string checkpoint_path;
  {
    util::MutexLock lock(&mu_);
    if (checkpoint_after) checkpoint_path = checkpoint_path_;
    captured = current_.load(std::memory_order_seq_cst);
    capture_watermark = journal_ != nullptr ? journal_->stats().last_sequence
                                            : base_watermark_;
    for (std::size_t s = 0; s < num_shards_; ++s) {
      const ShardTier& tier = captured->shard(s);
      if (tier.delta != nullptr || !tier.tombstones.empty()) {
        dirty.push_back(s);
      }
    }
    if (dirty.empty()) {
      // Nothing to fold: the bases already hold the captured state.
      base_watermark_ = capture_watermark;
      return captured->version;
    }
    compaction_pin_ = captured;
  }

  // --- Build, off every lock: merge each dirty shard's visible views into a
  // fresh pointer tree, then freeze it.  This re-inserts only entries that
  // were prepared against this dictionary when they were first published, so
  // every canonical variable the serialisation asks for already exists and
  // the build never writes the dictionary — it may safely overlap staging
  // (see the class threading contract).
  auto clear_pin = [this] {
    util::MutexLock lock(&mu_);
    compaction_pin_ = nullptr;
  };
  struct Folded {
    std::size_t shard = 0;
    std::shared_ptr<const index::FrozenMvIndex> frozen;  // null = emptied
    std::shared_ptr<const std::vector<std::uint64_t>> frozen_ids;
  };
  std::vector<Folded> folded;
  folded.reserve(dirty.size());
  for (std::size_t s : dirty) {
    const ShardTier& tier = captured->shard(s);
    auto merged = std::make_unique<index::MvIndex>(dict_, options_);
    util::Status built = util::Status::OK();
    if (tier.base != nullptr) {
      built = InsertTierEntries(
          *tier.base,
          [&tier](std::uint64_t ext) {
            return !SortedContains(tier.tombstones, ext);
          },
          merged.get());
    }
    if (built.ok() && tier.delta != nullptr) {
      built = InsertTierEntries(
          *tier.delta, [](std::uint64_t) { return true; }, merged.get());
    }
    if (!built.ok()) {
      clear_pin();
      return util::Status(built.code(),
                          "compaction merge failed: " + built.message());
    }
    IdSet merged_ids = VisibleIds(
        IdsOf(tier.base_view_ids), tier.tombstones, tier.delta_view_ids);
    Folded fold;
    fold.shard = s;
    if (!merged_ids.empty()) {
      // A shard whose every view was tombstoned folds to nothing — its tier
      // becomes empty and probes skip it entirely.
      fold.frozen = std::make_shared<const index::FrozenMvIndex>(  // NOLINT(frozen-construction): the sanctioned freeze site
          *merged);
      fold.frozen_ids = std::make_shared<const std::vector<std::uint64_t>>(
          std::move(merged_ids));
    }
    folded.push_back(std::move(fold));
  }

  if (compaction_hook_) compaction_hook_();

  // --- Swing: reconcile each folded shard against whatever is current *now*
  // (publishes may have run during the build) and publish the compacted
  // tiers through the same atomic pointer swing as Publish.
  std::uint64_t swung_version = 0;
  {
    util::MutexLock lock(&mu_);
    compaction_pin_ = nullptr;
    if (RDFC_FAILPOINT("compact.swing")) {
      // Same transactional contract as publish.swing: an aborted compaction
      // leaves the published chain and all staged state untouched — the
      // merged builds are simply dropped.
      return util::Status::Internal("failpoint compact.swing");
    }
    const IndexSnapshot* cur = current_.load(std::memory_order_seq_cst);
    auto next = std::make_unique<IndexSnapshot>();
    next->version = next_version_;
    next->dict_ptr = dict_;
    next->num_views = cur->num_views;
    next->shards = cur->shards;
    for (Folded& fold : folded) {
      const std::size_t s = fold.shard;
      const ShardTier& cur_tier = cur->shard(s);
      const IdSet& frozen_ids = IdsOf(fold.frozen_ids);
      // The published tier: its delta keeps the views published since the
      // capture (few, so rebuilding it under mu_ is cheap), its tombstones
      // mask the folded views removed since.
      auto tier = std::make_shared<ShardTier>();
      tier->base = fold.frozen;
      tier->base_view_ids = fold.frozen_ids;
      std::tie(tier->delta_view_ids, tier->tombstones) =
          Reconcile(frozen_ids, IdsOf(cur_tier.base_view_ids),
                    cur_tier.tombstones, cur_tier.delta_view_ids);
      if (!tier->delta_view_ids.empty()) {
        auto delta = std::make_unique<index::MvIndex>(dict_, options_);
        const util::Status kept = InsertTierEntries(
            *cur_tier.delta,
            [&tier](std::uint64_t id) {
              return SortedContains(tier->delta_view_ids, id);
            },
            delta.get());
        RDFC_CHECK(kept.ok());  // re-insert of a published view
        tier->delta = std::move(delta);
      }
      next->shards[s] = tier;
      // The pending sets, which also carry the staged changes, reconcile
      // against the same old base.
      ShardState& state = shards_[s];
      std::tie(state.pending_delta_ids, state.pending_tombstones) =
          Reconcile(frozen_ids, IdsOf(state.base_ids),
                    state.pending_tombstones, state.pending_delta_ids);
      state.base = fold.frozen;
      state.base_ids = fold.frozen_ids;
      state.published = std::move(tier);
      ++state.generation;
      ++shard_refreezes_[s];
    }
    swung_version = SwingLocked(std::move(next));
    // Every base now holds the captured state: the dirty shards were folded
    // from it, and the clean ones had nothing beyond their base.
    base_watermark_ = capture_watermark;
    ++compactions_run_;
    if (compaction_listener_) compaction_listener_(timer.ElapsedMicros());
  }
  if (!checkpoint_path.empty()) {
    // Checkpoint-on-compaction (EnableJournal): committing the new bases
    // lets the journal drop the records they cover, so its length tracks
    // the publishes since the last fold instead of growing without bound.
    // Best-effort: a failed checkpoint keeps every record and the next
    // compaction retries.
    (void)WriteCheckpoint(checkpoint_path);
  }
  return swung_version;
}

// ----------------------------------------------------------------------
// Persistence
// ----------------------------------------------------------------------

util::Status IndexManager::SaveTiered(const std::string& path) {
  util::MutexLock serial(&compaction_mu_);
  RDFC_RETURN_NOT_OK(RunCompaction(/*checkpoint_after=*/false).status());
  return WriteCheckpoint(path);
}

util::Status IndexManager::WriteCheckpoint(const std::string& path) {
  std::vector<index::TieredBlob> committed;
  bool first_here = false;
  {
    util::MutexLock lock(&mu_);
    first_here = path != committed_path_;
    if (!first_here) committed = committed_blobs_;
  }
  if (first_here) {
    // A manifest this manager did not commit or restore may sit at `path`.
    // Raising each shard's generation above the one it names (below) keeps
    // this save from overwriting its blobs.  An unreadable one names none.
    auto manifest = index::LoadTieredManifest(path);
    if (manifest.ok()) committed = std::move(manifest.value().blobs);
  }
  // Pin the bases and copy the watermark together.  The bases are
  // immutable, and only a compaction replaces them (compaction_mu_ is held),
  // so the blobs are written off mu_ while probes and publishes go on.
  std::vector<std::shared_ptr<const index::FrozenMvIndex>> bases;
  std::vector<index::TieredShardRef> refs;
  std::uint64_t watermark = 0;
  {
    util::MutexLock lock(&mu_);
    for (std::size_t s = 0; s < num_shards_; ++s) {
      ShardState& state = shards_[s];
      if (first_here && s < committed.size()) {
        state.generation =
            std::max(state.generation, committed[s].generation + 1);
      }
      bases.push_back(state.base);
      refs.push_back({state.base.get(), state.generation});
    }
    watermark = base_watermark_;
  }
  RDFC_RETURN_NOT_OK(
      index::SaveTieredIndex(refs, watermark, path, committed));

  util::MutexLock lock(&mu_);
  committed_path_ = path;
  committed_blobs_.clear();
  for (const index::TieredShardRef& ref : refs) {
    committed_blobs_.push_back({ref.base != nullptr, ref.generation});
  }
  if (RDFC_FAILPOINT("checkpoint.rebase")) {
    // Simulated crash between the manifest commit and the journal rebase:
    // the journal still holds records the bases cover, and recovery must
    // skip them by the watermark alone.
    return util::Status::Internal("failpoint checkpoint.rebase");
  }
  // Under mu_, so no append interleaves: the kept tail is every record past
  // the watermark, including the publishes that landed during the write.
  if (journal_ != nullptr) RDFC_RETURN_NOT_OK(journal_->Rebase(watermark));
  return util::Status::OK();
}

util::Status IndexManager::RestoreTiered(const std::string& path) {
  util::MutexLock lock(&mu_);
  if (next_version_ != 1 || next_view_id_ != 1) {
    return util::Status::InvalidArgument(
        "RestoreTiered requires a fresh manager");
  }
  RDFC_ASSIGN_OR_RETURN(index::TieredImage image,
                        index::LoadTieredIndex(path, dict_));
  if (image.shards.size() != num_shards_) {
    // Shard routing is baked into the frozen bases, so a restore cannot
    // re-shard; reload with TierOptions::num_shards matching the image.
    return util::Status::InvalidArgument(
        "tiered image has " + std::to_string(image.shards.size()) +
        " shards but the manager is configured for " +
        std::to_string(num_shards_));
  }

  auto next = std::make_unique<IndexSnapshot>();
  next->version = next_version_;
  next->dict_ptr = dict_;
  next->shards.reserve(num_shards_);
  committed_blobs_.clear();
  for (std::size_t s = 0; s < num_shards_; ++s) {
    index::TieredShardImage& shard_image = image.shards[s];
    ShardState& state = shards_[s];
    auto tier = std::make_shared<ShardTier>();
    if (shard_image.base != nullptr) {
      // The base's views stay in the base: only their ids are collected.
      // A view's shard is the blob it came from — the signature routing
      // that put it there is dictionary-independent, so it stays consistent.
      const index::FrozenMvIndex& base = *shard_image.base;
      IdSet ids;
      for (std::uint32_t id = 0; id < base.num_entries(); ++id) {
        if (!base.alive(id)) continue;
        const auto& external = base.external_ids(id);
        ids.insert(ids.end(), external.begin(), external.end());
      }
      std::sort(ids.begin(), ids.end());
      num_live_views_ += ids.size();
      if (!ids.empty()) next_view_id_ = std::max(next_view_id_, ids.back() + 1);
      state.base_ids = std::make_shared<const IdSet>(std::move(ids));
      state.base = std::shared_ptr<const index::FrozenMvIndex>(
          std::move(shard_image.base));
      tier->base = state.base;
      tier->base_view_ids = state.base_ids;
    }
    state.generation = shard_image.generation;
    state.published = tier;
    committed_blobs_.push_back({tier->base != nullptr, state.generation});
    next->shards.push_back(std::move(tier));
  }
  base_watermark_ = image.watermark;
  committed_path_ = path;
  next->num_views = num_live_views_;
  (void)SwingLocked(std::move(next));
  return util::Status::OK();
}

// ----------------------------------------------------------------------
// Write-ahead journal (DESIGN.md "Durability")
// ----------------------------------------------------------------------

util::Status IndexManager::EnableJournal(const index::JournalOptions& options,
                                         std::string checkpoint_path) {
  std::uint64_t watermark = 0;
  {
    util::MutexLock lock(&mu_);
    if (journal_ != nullptr) {
      return util::Status::InvalidArgument("journal already enabled");
    }
    if (!staged_.ops.empty()) {
      return util::Status::InvalidArgument(
          "EnableJournal with staged changes: publish or drop them first "
          "(staged intents predate the journal and would not be covered)");
    }
    watermark = base_watermark_;
  }
  // Open + replay outside mu_: the replay callback applies each batch under
  // mu_ itself.  No publish can interleave — the caller owns the dictionary
  // writer side (service mutation lock) for the whole call.  Records up to
  // the watermark are already in the restored bases and are skipped.
  auto replay = [this](const index::JournalBatch& batch) {
    return ApplyReplay(batch);
  };
  auto opened =
      index::WriteAheadJournal::Open(options, dict_, replay, watermark);
  if (!opened.ok()) return opened.status();
  // The journal must continue right after the watermark.  One that starts
  // later was rebased by a newer checkpoint than the one restored, and the
  // records in between exist nowhere.
  const index::JournalStats& opened_stats = opened.value()->stats();
  if (opened_stats.last_sequence - opened_stats.records_replayed > watermark) {
    return util::Status::Internal(
        "journal " + options.path + " starts after sequence " +
        std::to_string(watermark) +
        ", the restored checkpoint's watermark: restore the latest checkpoint");
  }

  util::MutexLock lock(&mu_);
  journal_ = std::move(opened).value();
  checkpoint_path_ = std::move(checkpoint_path);
  if (journal_->stats().records_replayed > 0) {
    // One unjournaled publish makes everything the replay staged visible.
    // Unjournaled because these ops came *from* the journal: re-appending
    // them would double them on the next recovery.
    auto published = PublishBatchLocked(/*with_journal=*/false);
    if (!published.ok()) return published.status();
  }
  return util::Status::OK();
}

util::Status IndexManager::ApplyReplay(const index::JournalBatch& batch) {
  util::MutexLock lock(&mu_);
  // Replay starts right after the watermark of the bases it runs over, so
  // every add names a new id and every remove a live one.  Anything else
  // means the journal and the checkpoint disagree.
  auto mismatch = [&batch](const char* what, std::uint64_t id) {
    return util::Status::Internal(
        "journal replay: record " + std::to_string(batch.sequence) + " " +
        what + " " + std::to_string(id));
  };
  for (const index::JournalOp& op : batch.ops) {
    if (op.kind == index::JournalOp::Kind::kAdd) {
      if (op.view.empty()) return mismatch("adds an empty view", op.view_id);
      // Ids ascend in stage order, so an id below the next fresh one was
      // already added, by the restored bases or earlier in the replay.
      if (op.view_id < next_view_id_) {
        return mismatch("adds an existing view id", op.view_id);
      }
      StageAddLocked(op.view_id, op.view);
    } else if (!StageRemoveLocked(op.view_id).ok()) {
      return mismatch("removes an unknown or dead view id", op.view_id);
    }
  }
  return util::Status::OK();
}

index::JournalStats IndexManager::journal_stats() const {
  util::MutexLock lock(&mu_);
  return journal_ != nullptr ? journal_->stats_snapshot()
                             : index::JournalStats{};
}

bool IndexManager::journal_enabled() const {
  util::MutexLock lock(&mu_);
  return journal_ != nullptr;
}

// ----------------------------------------------------------------------
// Reader side
// ----------------------------------------------------------------------

IndexManager::ReadGuard IndexManager::Acquire(std::size_t reader_slot)
    RDFC_READPATH {
  RDFC_DCHECK(reader_slot < slots_.size());  // RegisterReader before Acquire
  const ReadGuard::Slot& slot = slots_.At(reader_slot);
  const IndexSnapshot* snapshot = current_.load(std::memory_order_seq_cst);
  for (;;) {
    // Announce, then revalidate: the writer publishes before sweeping, so
    // either it sees this announcement or we see its new pointer (class
    // comment has the full argument).
    slot.hazard.store(snapshot, std::memory_order_seq_cst);
    const IndexSnapshot* check = current_.load(std::memory_order_seq_cst);
    if (check == snapshot) break;
    snapshot = check;
  }
  return ReadGuard(&slot, snapshot);
}

void IndexManager::ReadGuard::Release() RDFC_READPATH {
  if (slot_ != nullptr) {
    slot_->hazard.store(nullptr, std::memory_order_release);
    slot_ = nullptr;
    snapshot_ = nullptr;
  }
}

}  // namespace service
}  // namespace rdfc
