#include "service/containment_service.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "containment/pipeline.h"
#include "query/analysis.h"
#include "util/budget.h"
#include "util/bytes.h"
#include "util/timer.h"

namespace rdfc {
namespace service {

namespace {

/// FNV-1a over the probe's pattern triples: the quarantine key.  Term ids
/// are stable for the lifetime of the service dictionary, so resubmissions
/// of the same probe text hash identically.
std::uint64_t ProbeKey(const query::BgpQuery& q) {
  std::uint64_t h = util::kFnv1aOffset;
  for (const rdf::Triple& t : q.patterns()) {
    for (const rdf::TermId id : {t.s, t.p, t.o}) h = util::Fnv1aU64(id, h);
  }
  return h;
}

/// Exact pattern-list equality, guarding the batch dedup cache against FNV
/// collisions (the cache fans one probe's answer out to its twins, so a
/// false positive would be a wrong answer, not just a slow one).
bool SamePatterns(const query::BgpQuery& a, const query::BgpQuery& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const rdf::Triple& x = a.patterns()[i];
    const rdf::Triple& y = b.patterns()[i];
    if (x.s != y.s || x.p != y.p || x.o != y.o) return false;
  }
  return true;
}

}  // namespace

/// One admitted probe: the request, the promise its future watches, and the
/// stopwatch started at admission (queue wait + total latency both hang off
/// it).  Held by shared_ptr because std::function requires copyable
/// callables and std::promise is move-only.
struct ContainmentService::Job {
  ProbeRequest request;
  std::promise<ProbeResponse> promise;
  util::Timer admitted;
};

/// One admitted group (grouped SubmitBatch): all requests run as one worker
/// task against one pinned snapshot; `done` fires once per request.
struct ContainmentService::GroupJob {
  std::vector<ProbeRequest> requests;
  BatchDone done;
  util::Timer admitted;
};

ContainmentService::ContainmentService(const ServiceOptions& options)
    : options_(options),
      manager_(&dict_, options.index, options.tier),
      metrics_(options.num_threads == 0 ? 1 : options.num_threads) {
  // Compaction durations flow into the metrics from the compaction thread;
  // Shutdown() stops that thread before metrics_ can be torn down.
  manager_.set_compaction_listener(
      [this](double micros) { metrics_.RecordCompaction(micros); });
  util::ThreadPool::Options pool_options;
  pool_options.num_threads = options_.num_threads;
  pool_options.queue_capacity = options_.queue_capacity;
  pool_ = std::make_unique<util::ThreadPool>(pool_options);
  // Reader slot i belongs to worker i: registration happens before any
  // Submit can reach a worker, so slots are ready when RunJob first runs.
  for (std::size_t i = 0; i < pool_->num_threads(); ++i) {
    (void)manager_.RegisterReader();
  }
}

ContainmentService::~ContainmentService() { Shutdown(); }

void ContainmentService::Shutdown() {
  pool_->Shutdown();
  // After the probe pool: a draining compaction may still publish, which
  // probes tolerate, but the compaction listener touches metrics_, so the
  // compaction thread must be joined while everything it reaches is alive.
  manager_.StopCompaction();
}

util::Result<std::uint64_t> ContainmentService::AddView(
    std::string_view sparql) {
  util::MutexLock lock(&mutation_mu_);
  RDFC_ASSIGN_OR_RETURN(query::BgpQuery view,
                        sparql::ParseQuery(sparql, &dict_, options_.parser));
  return manager_.StageAdd(std::move(view));
}

util::Status ContainmentService::RemoveView(std::uint64_t view_id) {
  util::MutexLock lock(&mutation_mu_);
  return manager_.StageRemove(view_id);
}

util::Result<std::uint64_t> ContainmentService::Publish() {
  util::MutexLock lock(&mutation_mu_);
  auto version = manager_.Publish();
  if (version.ok()) metrics_.RecordPublish();
  return version;
}

util::Result<std::vector<std::uint64_t>> ContainmentService::PublishViews(
    const std::vector<std::string>& sparql) {
  util::MutexLock lock(&mutation_mu_);
  // Parse everything first so a bad query aborts before any staging.
  std::vector<query::BgpQuery> parsed;
  parsed.reserve(sparql.size());
  for (const std::string& text : sparql) {
    RDFC_ASSIGN_OR_RETURN(query::BgpQuery view,
                          sparql::ParseQuery(text, &dict_, options_.parser));
    parsed.push_back(std::move(view));
  }
  std::vector<std::uint64_t> ids;
  ids.reserve(parsed.size());
  for (query::BgpQuery& view : parsed) {
    RDFC_ASSIGN_OR_RETURN(std::uint64_t id, manager_.StageAdd(std::move(view)));
    ids.push_back(id);
  }
  RDFC_ASSIGN_OR_RETURN(std::uint64_t version, manager_.Publish());
  (void)version;
  metrics_.RecordPublish();
  return ids;
}

util::Result<query::BgpQuery> ContainmentService::Parse(
    std::string_view sparql) {
  util::MutexLock lock(&mutation_mu_);
  return sparql::ParseQuery(sparql, &dict_, options_.parser);
}

util::Result<std::future<ProbeResponse>> ContainmentService::Submit(
    ProbeRequest request) {
  auto job = std::make_shared<Job>();
  job->request = std::move(request);
  std::future<ProbeResponse> future = job->promise.get_future();
  util::Status admitted = pool_->TrySubmit(
      [this, job](std::size_t worker_index) { RunJob(worker_index, job.get()); });
  if (!admitted.ok()) {
    metrics_.RecordRejected();
    return admitted;
  }
  metrics_.RecordSubmitted();
  return future;
}

std::vector<util::Result<ProbeResponse>> ContainmentService::SubmitBatch(
    std::vector<ProbeRequest> batch) {
  // Admit everything up front (so the batch fills the pipeline), then wait.
  std::vector<util::Result<std::future<ProbeResponse>>> admitted;
  admitted.reserve(batch.size());
  for (ProbeRequest& request : batch) {
    admitted.push_back(Submit(std::move(request)));
  }
  std::vector<util::Result<ProbeResponse>> out;
  out.reserve(admitted.size());
  for (auto& entry : admitted) {
    if (!entry.ok()) {
      out.push_back(entry.status());
    } else {
      out.push_back(entry.value().get());
    }
  }
  return out;
}

util::Status ContainmentService::SubmitBatch(std::vector<ProbeRequest> group,
                                             BatchDone done,
                                             double accumulation_wait_micros) {
  if (group.empty()) return util::Status::OK();
  auto job = std::make_shared<GroupJob>();
  job->requests = std::move(group);
  job->done = std::move(done);
  const std::size_t size = job->requests.size();
  util::Status admitted = pool_->TrySubmit([this, job](
      std::size_t worker_index) { RunGroup(worker_index, job.get()); });
  if (!admitted.ok()) {
    // All-or-nothing: the group held one queue slot, so every member sheds
    // together.  No callback fires — the caller fans the error out.
    for (std::size_t i = 0; i < size; ++i) metrics_.RecordRejected();
    return admitted;
  }
  for (std::size_t i = 0; i < size; ++i) metrics_.RecordSubmitted();
  metrics_.RecordBatch(size, accumulation_wait_micros);
  return util::Status::OK();
}

util::Result<ProbeResponse> ContainmentService::Probe(std::string_view sparql) {
  RDFC_ASSIGN_OR_RETURN(query::BgpQuery query, Parse(sparql));
  ProbeRequest request;
  request.query = std::move(query);
  RDFC_ASSIGN_OR_RETURN(std::future<ProbeResponse> future,
                        Submit(std::move(request)));
  return future.get();
}

bool ContainmentService::CheckQuarantined(std::uint64_t probe_key) {
  if (options_.quarantine_threshold == 0) return false;
  util::MutexLock lock(&quarantine_mu_);
  auto it = offenders_.find(probe_key);
  if (it == offenders_.end()) return false;
  if (it->second.consecutive_degraded < options_.quarantine_threshold) {
    return false;
  }
  if (std::chrono::steady_clock::now() >= it->second.cooldown_until) {
    // Cooldown over: give the probe another chance (its counter stays at
    // the threshold, so one more degraded outcome re-arms the breaker
    // immediately, while a healthy run clears it).
    return false;
  }
  return true;
}

void ContainmentService::NoteDegraded(std::uint64_t probe_key) {
  if (options_.quarantine_threshold == 0) return;
  util::MutexLock lock(&quarantine_mu_);
  Offender& offender = offenders_[probe_key];
  ++offender.consecutive_degraded;
  if (offender.consecutive_degraded >= options_.quarantine_threshold) {
    offender.cooldown_until =
        std::chrono::steady_clock::now() +
        std::chrono::microseconds(static_cast<std::int64_t>(
            options_.quarantine_cooldown_micros));
  }
}

void ContainmentService::NoteHealthy(std::uint64_t probe_key) {
  if (options_.quarantine_threshold == 0) return;
  util::MutexLock lock(&quarantine_mu_);
  offenders_.erase(probe_key);
}

void ContainmentService::RunJob(std::size_t worker_index, Job* job) {
  // Pin the current index version; everything below is lock-free reads.
  const IndexManager::ReadGuard guard = manager_.Acquire(worker_index);
  job->promise.set_value(
      ExecuteOne(worker_index, job->request, guard, job->admitted));
}

ProbeResponse ContainmentService::ExecuteOne(
    std::size_t worker_index, const ProbeRequest& request,
    const IndexManager::ReadGuard& guard, const util::Timer& admitted) {
  ProbeResponse response;
  response.queue_micros = admitted.ElapsedMicros();

  // Deadline admission check: expired requests are answered, not run.
  // Distinct from mid-probe budget expiry — here no work has started, so
  // the honest answer is DeadlineExceeded, not a degraded result.
  if (std::chrono::steady_clock::now() >= request.deadline) {
    metrics_.RecordDeadlineExpired(worker_index, response.queue_micros);
    response.status = util::Status::DeadlineExceeded(
        "deadline passed before the probe was picked up");
    response.total_micros = admitted.ElapsedMicros();
    return response;
  }

  // Circuit breaker: a probe that repeatedly degrades is short-circuited to
  // an (empty, maximally degraded) response for the cooldown window instead
  // of burning a worker on work known to blow its budget.
  const std::uint64_t probe_key = ProbeKey(request.query);
  if (CheckQuarantined(probe_key)) {
    response.degraded = true;
    response.quarantined = true;
    response.total_micros = admitted.ElapsedMicros();
    metrics_.RecordQuarantined(worker_index, response.queue_micros,
                               response.total_micros);
    return response;
  }

  // The probe budget: the request deadline, tightened by the service-wide
  // per-probe timeout when one is configured.
  util::ProbeBudget budget = util::ProbeBudget::AtDeadline(request.deadline);
  if (options_.probe_timeout_micros > 0.0) {
    const util::ProbeBudget capped =
        util::ProbeBudget::AfterMicros(options_.probe_timeout_micros);
    if (!budget.has_deadline() || capped.deadline() < budget.deadline()) {
      budget = capped;
    }
  }
  index::ProbeOptions probe_options = options_.probe;
  probe_options.budget = &budget;

  response.snapshot_version = guard->version;
  const containment::PreparedProbe prepared =
      containment::PrepareProbe(request.query, guard->dict());
  // Fan the probe out across the snapshot's shards on our own worker pool
  // (TrySubmit never blocks: under saturation the helpers shed and this
  // worker walks every shard inline, so probes can't deadlock on probes).
  // The preferred shard is the probe's own routing signature — the network
  // front end already computed it as the batching key; compute it here
  // otherwise.
  const std::uint64_t signature =
      request.has_anchor_signature
          ? request.anchor_signature
          : query::AnchorSignature(request.query, guard->dict());
  ProbeFanout fanout;
  const index::ProbeResult result = guard->FindParallel(
      prepared, probe_options, pool_.get(),
      static_cast<std::size_t>(signature % guard->num_shards()), &fanout);
  metrics_.RecordFanout(worker_index, fanout.parallel_walkers);

  response.candidates = result.candidates;
  response.np_checks = result.np_checks;
  response.filter_micros = result.filter_micros;
  response.verify_micros = result.verify_micros;
  response.degraded = result.degraded();
  // Stored ids in a merged result are tier-tagged; AppendViewIds resolves
  // them against the right tier and masks tombstoned base ids.
  for (const index::ProbeMatch& match : result.contained) {
    guard->AppendViewIds(match.stored_id, &response.containing_views);
  }
  std::sort(response.containing_views.begin(),
            response.containing_views.end());
  response.containing_views.erase(std::unique(response.containing_views.begin(),
                                              response.containing_views.end()),
                                  response.containing_views.end());
  for (std::uint32_t stored_id : result.unverified) {
    guard->AppendViewIds(stored_id, &response.unverified_views);
  }
  std::sort(response.unverified_views.begin(), response.unverified_views.end());
  response.unverified_views.erase(
      std::unique(response.unverified_views.begin(),
                  response.unverified_views.end()),
      response.unverified_views.end());

  if (request.simulated_io_micros > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(
        request.simulated_io_micros));
  }

  response.total_micros = admitted.ElapsedMicros();
  if (response.degraded) {
    NoteDegraded(probe_key);
    metrics_.RecordDegraded(worker_index, response.queue_micros,
                            response.filter_micros, response.verify_micros,
                            response.total_micros);
  } else {
    NoteHealthy(probe_key);
    metrics_.RecordCompleted(worker_index, response.queue_micros,
                             response.filter_micros, response.verify_micros,
                             response.total_micros);
  }
  return response;
}

void ContainmentService::RunGroup(std::size_t worker_index, GroupJob* group) {
  // One snapshot pin for the whole group: siblings provably answer against
  // the same index version, and the walk scratch stays warm across them.
  const IndexManager::ReadGuard guard = manager_.Acquire(worker_index);

  // Intra-group dedup: the first clean (completed, undegraded) answer for a
  // pattern-identical probe is fanned out to later twins without another
  // walk.  Keyed by the probe FNV hash, confirmed by exact pattern equality.
  // Degraded / quarantined / expired outcomes are never cached, so dedup
  // can only ever substitute a full answer for a full answer.
  std::unordered_map<std::uint64_t, std::size_t> exemplar_of;
  std::vector<ProbeResponse> finished(group->requests.size());

  for (std::size_t i = 0; i < group->requests.size(); ++i) {
    const ProbeRequest& request = group->requests[i];
    const std::uint64_t key = ProbeKey(request.query);
    const auto it = exemplar_of.find(key);
    if (it != exemplar_of.end() &&
        std::chrono::steady_clock::now() < request.deadline &&
        SamePatterns(group->requests[it->second].query, request.query)) {
      const ProbeResponse& exemplar = finished[it->second];
      ProbeResponse response;
      response.queue_micros = group->admitted.ElapsedMicros();
      response.snapshot_version = exemplar.snapshot_version;
      response.containing_views = exemplar.containing_views;
      response.unverified_views = exemplar.unverified_views;
      response.candidates = exemplar.candidates;
      response.np_checks = exemplar.np_checks;
      response.total_micros = group->admitted.ElapsedMicros();
      metrics_.RecordCompleted(worker_index, response.queue_micros,
                               /*filter_micros=*/0.0, /*verify_micros=*/0.0,
                               response.total_micros);
      metrics_.RecordBatchDedup();
      group->done(i, std::move(response));
      continue;
    }
    ProbeResponse response =
        ExecuteOne(worker_index, request, guard, group->admitted);
    if (response.status.ok() && !response.degraded && !response.quarantined) {
      exemplar_of.emplace(key, i);
      finished[i] = response;
    }
    group->done(i, std::move(response));
  }
}

}  // namespace service
}  // namespace rdfc
