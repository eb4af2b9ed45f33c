// servebench: the serving benchmark of the containment service.
//
// One process hosts service::ContainmentService behind net::NetServer on
// loopback and drives it through net::Client: set-up, a closed-loop
// saturation phase, an open-loop phase at a fixed rate with a publish
// schedule beside it, and a restart from a checkpoint plus journal.  Every
// sampled answer is checked against an index-free oracle.  With --trace 1 it
// also replays the same inputs in-process from one thread with a span around
// each call into a layer, and prints the per-layer metrics.
//
//   servebench --workload watdiv_read --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object (see README.md).

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gen.h"
#include "load.h"
#include "net/server.h"
#include "net/wire.h"
#include "oracle.h"
#include "query/analysis.h"
#include "service/containment_service.h"
#include "trace.h"
#include "util/rng.h"

namespace servebench {
namespace {

namespace fs = std::filesystem;
using rdfc::service::ContainmentService;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  int trace = 0;
  bool quick = false;
  std::string out = ".bench_build/servebench-out";
};

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

/// The lower quartile, over consecutive windows of `per` samples, of each
/// window's exact `q` percentile.  CPU steal by the hypervisor comes in
/// episodes that slow every thread at once; a window that overlaps one
/// reads high.  Taking the quieter quarter keeps episodes that cover up to
/// three quarters of the run out of the figure, while a slower service
/// moves every window.
double WindowedPercentile(const std::vector<double>& v, std::size_t per,
                          double q) {
  if (per == 0 || v.size() < 2 * per) return Percentile(v, q);
  std::vector<double> each;
  for (std::size_t at = 0; at + per <= v.size(); at += per) {
    each.push_back(Percentile(
        std::vector<double>(v.begin() + at, v.begin() + at + per), q));
  }
  return Percentile(each, 0.25);
}

/// Whether a short phase timed `runs` times so far should run again: at
/// least `min_runs` times, then until the runs add up to `budget_s`, so that
/// a phase of milliseconds is still timed over seconds.
bool MoreRuns(const std::vector<double>& runs, std::size_t min_runs,
              double budget_s) {
  double total = 0;
  for (double x : runs) total += x;
  return runs.size() < min_runs || (total < budget_s && runs.size() < 64);
}

double Mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

/// Jiffies the hypervisor stole from the host's CPUs, and all jiffies
/// (/proc/stat, first line).  Printed for reading a run's figures: steal
/// slows every thread of the service at once.
std::pair<double, double> StealJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  in >> cpu;
  for (double& x : v) in >> x;
  double total = 0;
  for (double x : v) total += x;
  return {v[7], total};
}

double RssMiB() {
  std::ifstream in("/proc/self/statm");
  long pages_total = 0, pages_resident = 0;
  in >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Bytes of every file in `dir` whose name starts with `prefix`.
std::uint64_t BytesWithPrefix(const std::string& dir,
                              const std::string& prefix) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    if (e.is_regular_file() &&
        e.path().filename().string().rfind(prefix, 0) == 0) {
      total += e.file_size();
    }
  }
  return total;
}

std::size_t Cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

/// Workers + the server's I/O thread + the load thread fit in the CPUs.
rdfc::service::ServiceOptions ServeOptions() {
  rdfc::service::ServiceOptions o;
  o.num_threads = Cpus() > 3 ? Cpus() - 2 : 1;
  return o;
}

rdfc::index::JournalOptions Journal(const std::string& path) {
  rdfc::index::JournalOptions j;
  j.path = path;
  return j;
}

/// Failure bookkeeping shared by every phase.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;  // correctness violations
  std::vector<std::string> notes;

  void Fail(const std::string& what) {
    ++failed;
    if (notes.size() < 8) notes.push_back("failed: " + what);
  }
  void Wrong(const std::string& what) {
    ++wrong;
    if (notes.size() < 8) notes.push_back("incorrect: " + what);
  }
};

// ---------------------------------------------------------------------------
// Set-up: from an empty service to serving
// ---------------------------------------------------------------------------

struct Served {
  std::unique_ptr<ContainmentService> svc;
  std::vector<std::uint64_t> ids;  // corpus view ids, corpus order
  std::uint64_t version = 0;       // the corpus publish
  double seconds = 0;
};

/// Parse, stage and publish the corpus, then wait until compaction has
/// folded it into frozen bases.  Spans go to `tr` (a disabled tracer records
/// nothing).
Served Setup(const Workload& w, const std::string& journal, Tally* tally,
             Tracer* tr) {
  fs::remove(journal);
  Served s;
  const std::int64_t t0 = NowNs();
  Scoped root(tr, "setup", 0);
  s.svc = std::make_unique<ContainmentService>(ServeOptions());
  rdfc::util::Status st = s.svc->EnableJournal(Journal(journal));
  if (!st.ok()) tally->Fail("EnableJournal: " + st.ToString());
  s.ids.reserve(w.corpus.size());
  for (const GenQuery& q : w.corpus) {
    Scoped span(tr, "service.AddView", 0, root.id());
    rdfc::util::Result<std::uint64_t> id = s.svc->AddView(q.text);
    if (!id.ok()) {
      tally->Fail("AddView: " + id.status().ToString());
      s.ids.push_back(0);
      continue;
    }
    s.ids.push_back(*id);
  }
  {
    Scoped span(tr, "service.Publish", 0, root.id());
    rdfc::util::Result<std::uint64_t> v = s.svc->Publish();
    if (v.ok()) {
      s.version = *v;
    } else {
      tally->Fail("Publish: " + v.status().ToString());
    }
  }
  {
    Scoped span(tr, "service.Refreeze", 0, root.id());
    rdfc::util::Result<std::uint64_t> v = s.svc->Refreeze();
    if (!v.ok()) tally->Fail("Refreeze: " + v.status().ToString());
  }
  while (s.svc->manager().compaction_in_flight() ||
         s.svc->manager().tier_stats().delta_views > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  s.seconds = static_cast<double>(NowNs() - t0) / 1e9;
  return s;
}

// ---------------------------------------------------------------------------
// The publish schedule
// ---------------------------------------------------------------------------

struct Writer {
  const Workload& w;
  ContainmentService* svc;
  LiveLog* log;
  const std::vector<Oracle::Query>* reserve;
  std::vector<std::uint64_t> live;  // live ids, removal candidates
  rdfc::util::Rng pick;
  std::size_t next_reserve = 0;
  std::size_t next_batch = 0;
  bool gauges = false;  // sample retained versions / delta size (traced run)

  std::vector<double> publish_ms;
  std::size_t max_retained = 0;
  std::vector<double> delta_at_publish;
  std::vector<std::uint64_t> added;  // ids added by the schedule

  Writer(const Workload& wl, ContainmentService* s, LiveLog* l,
         const std::vector<Oracle::Query>* r, std::vector<std::uint64_t> ids)
      : w(wl), svc(s), log(l), reserve(r), live(std::move(ids)),
        pick(wl.remove_seed) {
    // Everything the schedule records is sized up front, so that the
    // benchmark's own bookkeeping does not count as service memory.
    const std::size_t n = w.publishes.size();
    publish_ms.reserve(n);
    delta_at_publish.reserve(n);
    std::size_t adds = 0;
    for (const PublishBatch& b : w.publishes) adds += b.adds;
    added.reserve(adds);
    live.reserve(live.size() + adds);
  }

  /// One batch: AddView x adds, RemoveView x removes, Publish.  Spans go to
  /// `tr` under request `request`.
  void Batch(Tally* tally, Tracer* tr, std::uint64_t request) {
    const PublishBatch& b = w.publishes[next_batch++];
    ++tally->attempted;
    if (gauges) {
      delta_at_publish.push_back(
          static_cast<double>(svc->manager().tier_stats().delta_views));
    }
    const std::int64_t t0 = NowNs();
    std::vector<std::uint64_t> adds, removes;
    for (std::uint32_t i = 0; i < b.adds; ++i) {
      const std::size_t r = next_reserve++ % w.reserve.size();
      Scoped span(tr, "service.AddView", request);
      rdfc::util::Result<std::uint64_t> id = svc->AddView(w.reserve[r].text);
      if (!id.ok()) {
        tally->Fail("AddView: " + id.status().ToString());
        return;
      }
      log->Staged(*id, &(*reserve)[r]);
      adds.push_back(*id);
    }
    for (std::uint32_t i = 0; i < b.removes && !live.empty(); ++i) {
      const std::size_t at = pick.Uniform(0, live.size() - 1);
      const std::uint64_t id = live[at];
      live[at] = live.back();
      live.pop_back();
      Scoped span(tr, "service.RemoveView", request);
      const rdfc::util::Status st = svc->RemoveView(id);
      if (!st.ok()) {
        tally->Fail("RemoveView: " + st.ToString());
        return;
      }
      removes.push_back(id);
    }
    rdfc::util::Result<std::uint64_t> v = [&] {
      Scoped span(tr, "service.Publish", request);
      return svc->Publish();
    }();
    publish_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    if (!v.ok()) {
      tally->Fail("Publish: " + v.status().ToString());
      return;
    }
    for (std::uint64_t id : adds) {
      log->Published(id, *v);
      live.push_back(id);
      added.push_back(id);
    }
    for (std::uint64_t id : removes) log->Removed(id, *v);
    if (gauges) {
      max_retained =
          std::max(max_retained, svc->manager().num_retained_versions());
    }
  }
};

// ---------------------------------------------------------------------------
// Correctness checks
// ---------------------------------------------------------------------------

/// Sampled answers must equal the oracle over the views live at the
/// answer's snapshot version, and no removed id may appear after the
/// version that removed it.
void CheckSamples(const std::vector<Sampled>& samples, const Workload& w,
                  const LiveLog& log, Tally* tally) {
  std::map<std::uint32_t, Oracle::Query> compiled;
  for (const Sampled& s : samples) {
    for (std::uint64_t id : s.views) {
      if (log.removed_at(id) <= s.version) {
        tally->Wrong("removed view " + std::to_string(id) +
                     " answered at version " + std::to_string(s.version));
      }
    }
    auto it = compiled.find(s.probe);
    if (it == compiled.end()) {
      it = compiled
               .emplace(s.probe, Oracle::Compile(w.probes[s.probe], *w.dict))
               .first;
    }
    const std::vector<std::uint64_t> want = log.Answer(it->second, s.version);
    if (want != s.views) {
      tally->Wrong("probe " + std::to_string(s.probe) + " at version " +
                   std::to_string(s.version) + ": service " +
                   std::to_string(s.views.size()) + " views, oracle " +
                   std::to_string(want.size()) + " [" + w.probes[s.probe].text +
                   "]");
    }
  }
}

/// Every published view answers for its own text (Q ⊑ Q).
void CheckSelf(ContainmentService* svc, const std::vector<std::uint64_t>& ids,
               const std::vector<const GenQuery*>& texts, Tally* tally) {
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ++tally->attempted;
    rdfc::util::Result<rdfc::service::ProbeResponse> r =
        svc->Probe(texts[i]->text);
    if (!r.ok() || !r->status.ok() || r->degraded) {
      tally->Fail("self probe");
      continue;
    }
    if (!std::binary_search(r->containing_views.begin(),
                            r->containing_views.end(), ids[i])) {
      tally->Wrong("view " + std::to_string(ids[i]) +
                   " does not answer for its own text");
    }
  }
}

/// Live ids of the service's current snapshot (base - tombstones + delta).
std::vector<std::uint64_t> LiveIds(ContainmentService* svc) {
  rdfc::service::IndexManager& m = svc->manager();
  const std::size_t slot = m.RegisterReader();
  rdfc::service::IndexManager::ReadGuard g = m.Acquire(slot);
  std::vector<std::uint64_t> out;
  for (std::size_t s = 0; s < g->num_shards(); ++s) {
    const rdfc::service::ShardTier& t = g->shard(s);
    if (t.base_view_ids != nullptr) {
      for (std::uint64_t id : *t.base_view_ids) {
        if (!std::binary_search(t.tombstones.begin(), t.tombstones.end(),
                                id)) {
          out.push_back(id);
        }
      }
    }
    out.insert(out.end(), t.delta_view_ids.begin(), t.delta_view_ids.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Restart: restore the fixed checkpoint, replay the journal written after it
// ---------------------------------------------------------------------------

struct Recovered {
  std::unique_ptr<ContainmentService> svc;
  double seconds = 0;
};

Recovered Recover(const std::string& checkpoint, const std::string& journal,
                  Tally* tally, Tracer* tr) {
  Recovered r;
  ++tally->attempted;
  const std::int64_t t0 = NowNs();
  Scoped root(tr, "recovery", 0);
  r.svc = std::make_unique<ContainmentService>(ServeOptions());
  r.svc->set_recovering(true);
  rdfc::util::Status st = [&] {
    Scoped span(tr, "index.RestoreTiered", 0, root.id());
    return r.svc->manager().RestoreTiered(checkpoint);
  }();
  if (st.ok()) {
    Scoped span(tr, "index.EnableJournal", 0, root.id());
    st = r.svc->EnableJournal(Journal(journal));
  }
  r.svc->set_recovering(false);
  r.seconds = static_cast<double>(NowNs() - t0) / 1e9;
  if (!st.ok()) tally->Fail("recovery: " + st.ToString());
  return r;
}

/// After a restart the recovered live set equals the acknowledged
/// publishes, and a sample of probes answers as the oracle says.
void CheckRecovered(ContainmentService* svc, const LiveLog& log,
                    const Workload& w, std::size_t probes, Tally* tally) {
  if (LiveIds(svc) != log.LiveNow()) {
    tally->Wrong("recovered live set differs from the acknowledged one");
  }
  const std::size_t step = std::max<std::size_t>(1, w.probes.size() / probes);
  for (std::size_t i = 0; i < w.probes.size(); i += step) {
    ++tally->attempted;
    rdfc::util::Result<rdfc::service::ProbeResponse> r =
        svc->Probe(w.probes[i].text);
    if (!r.ok() || !r->status.ok() || r->degraded) {
      tally->Fail("probe after restart");
      continue;
    }
    const Oracle::Query q = Oracle::Compile(w.probes[i], *w.dict);
    if (log.Answer(q, LiveLog::kNever - 1) != r->containing_views) {
      tally->Wrong("probe " + std::to_string(i) + " after restart");
    }
  }
}

// ---------------------------------------------------------------------------
// The traced in-process replay
// ---------------------------------------------------------------------------

struct ReplayCounts {
  std::vector<double> filter_us, verify_us, shard_max_us, queue_us;
  double np_checks = 0, candidates = 0, contained = 0, states = 0;
  double shards_probed = 0, walkers = 0, probes = 0;
};

/// Probes request `r` of the stream through each layer's public functions,
/// with a span around each call.  `detail` adds the per-shard walks and the
/// response codec.
void ReplayProbe(ContainmentService* svc, std::size_t slot,
                 rdfc::util::ThreadPool* helpers, const std::string& text,
                 std::uint64_t request, bool detail, Tracer* tr,
                 ReplayCounts* c, Tally* tally) {
  Scoped root(tr, "request", request);
  rdfc::util::Result<rdfc::query::BgpQuery> q = [&] {
    Scoped span(tr, "sparql.Parse", request, root.id());
    return svc->Parse(text);
  }();
  ++tally->attempted;
  if (!q.ok()) {
    tally->Fail("Parse: " + q.status().ToString());
    return;
  }
  rdfc::service::IndexManager::ReadGuard g = svc->manager().Acquire(slot);
  std::uint64_t sig = 0;
  {
    Scoped span(tr, "query.AnchorSignature", request, root.id());
    sig = rdfc::query::AnchorSignature(*q, g->dict());
  }
  const rdfc::containment::PreparedProbe prepared = [&] {
    Scoped span(tr, "containment.PrepareProbe", request, root.id());
    return rdfc::containment::PrepareProbe(*q, g->dict());
  }();
  rdfc::service::ProbeFanout fanout;
  const rdfc::index::ProbeResult result = [&] {
    Scoped span(tr, "index.FindParallel", request, root.id());
    return g->FindParallel(prepared, {}, helpers,
                           static_cast<std::size_t>(sig % g->num_shards()),
                           &fanout);
  }();
  c->probes += 1;
  c->filter_us.push_back(result.filter_micros);
  c->verify_us.push_back(result.verify_micros);
  c->np_checks += static_cast<double>(result.np_checks);
  c->candidates += static_cast<double>(result.candidates);
  c->contained += static_cast<double>(result.contained.size());
  c->states += static_cast<double>(result.states_explored);
  c->shards_probed += fanout.shards_probed;
  c->walkers += fanout.parallel_walkers;
  if (!detail) return;

  double slowest = 0;
  {
    Scoped walks(tr, "index.shard_walks", request, root.id());
    for (std::size_t s = 0; s < g->num_shards(); ++s) {
      if (g->shard(s).empty()) continue;
      const std::int64_t t0 = NowNs();
      Scoped span(tr, "index.ShardTier.Find", request, walks.id());
      const rdfc::index::ProbeResult part = g->shard(s).Find(prepared, {});
      (void)part;
      slowest = std::max(slowest, static_cast<double>(NowNs() - t0) / 1e3);
    }
  }
  c->shard_max_us.push_back(slowest);

  rdfc::net::WireResponse resp;
  resp.snapshot_version = g->version;
  resp.candidates = static_cast<std::uint32_t>(result.candidates);
  resp.np_checks = static_cast<std::uint32_t>(result.np_checks);
  for (const rdfc::index::ProbeMatch& m : result.contained) {
    g->AppendViewIds(m.stored_id, &resp.containing_views);
  }
  std::sort(resp.containing_views.begin(), resp.containing_views.end());
  resp.containing_views.erase(std::unique(resp.containing_views.begin(),
                                          resp.containing_views.end()),
                              resp.containing_views.end());
  Scoped span(tr, "net.codec", request, root.id());
  std::string frame;
  rdfc::net::EncodeResponse(resp, &frame);
  rdfc::net::WireResponse back;
  if (!rdfc::net::DecodeResponse(
           std::string_view(frame).substr(rdfc::net::kFramePrefixBytes), &back)
           .ok() ||
      back.containing_views != resp.containing_views) {
    tally->Wrong("response codec round trip");
  }
}

struct Replay {
  std::map<std::string, double> metrics;
  double overhead_us = 0;  // per probe, traced minus untraced
  double untraced_us = 0;
};

std::size_t ReplayProbes(const Workload& w, bool quick) {
  return std::min<std::size_t>(quick ? 200 : 1500,
                               w.requests.size() / w.burst);
}

/// One request per burst of the stream (the rest of a burst is answered by
/// batch dedup on the server).
const std::string& ReplayText(const Workload& w, std::size_t i) {
  return w.probes[w.requests[(i * w.burst) % w.requests.size()]].text;
}

Replay RunReplay(const Workload& w, const std::string& dir,
                 const std::vector<Oracle::Query>& reserve, bool quick,
                 const std::string& trace_path, Tally* tally) {
  Replay out;
  Tracer tr(true);
  const std::string journal = dir + "/replay.journal";
  const std::string checkpoint = dir + "/replay.ckpt";
  Served s = Setup(w, journal, tally, &tr);
  ContainmentService* svc = s.svc.get();
  {
    Scoped span(&tr, "index.SaveTiered", 0);
    const rdfc::util::Status st = svc->manager().SaveTiered(checkpoint);
    if (!st.ok()) tally->Fail("SaveTiered: " + st.ToString());
  }
  out.metrics["index.checkpoint_mb"] =
      static_cast<double>(BytesWithPrefix(dir, "replay.ckpt")) / (1 << 20);

  rdfc::util::ThreadPool::Options po;
  po.num_threads = 1;  // caller + one helper, as a worker with an idle peer
  rdfc::util::ThreadPool helpers(po);
  const std::size_t slot = svc->manager().RegisterReader();
  LiveLog log;  // the replay's own writes; not checked here
  for (std::size_t i = 0; i < s.ids.size(); ++i) {
    if (s.ids[i] != 0) {
      log.Staged(s.ids[i], nullptr);
      log.Published(s.ids[i], s.version);
    }
  }
  Writer writer(w, svc, &log, &reserve, s.ids);
  writer.gauges = true;
  const std::size_t n = ReplayProbes(w, quick);
  const double per_publish = std::max(
      1.0, w.open_rate * w.publish_period_ms / 1000.0 / w.burst);
  ReplayCounts counts;
  for (std::size_t i = 0; i < n; ++i) {
    ReplayProbe(svc, slot, &helpers, ReplayText(w, i), i + 1, true, &tr,
                &counts, tally);
    if (static_cast<double>(i + 1) >=
            per_publish * static_cast<double>(writer.next_batch + 1) &&
        writer.next_batch < w.publishes.size()) {
      writer.Batch(tally, &tr, i + 1);
    }
  }
  // The rest of the publish schedule, so that the restart below replays as
  // long a journal as the served run's.
  while (writer.next_batch < w.publishes.size()) {
    writer.Batch(tally, &tr, n + 1);
  }
  // Tracing overhead: the same probes with spans recorded and without.
  {
    Tracer on(true), off(false);
    ReplayCounts scratch;
    const std::int64_t t0 = NowNs();
    for (std::size_t i = 0; i < n; ++i) {
      ReplayProbe(svc, slot, &helpers, ReplayText(w, i), i + 1, false, &off,
                  &scratch, tally);
    }
    const std::int64_t t1 = NowNs();
    for (std::size_t i = 0; i < n; ++i) {
      ReplayProbe(svc, slot, &helpers, ReplayText(w, i), i + 1, false, &on,
                  &scratch, tally);
    }
    const std::int64_t t2 = NowNs();
    out.untraced_us = static_cast<double>(t1 - t0) / 1e3 / n;
    out.overhead_us = static_cast<double>((t2 - t1) - (t1 - t0)) / 1e3 / n;
  }
  // Queue wait through the service's own admission path.
  for (std::size_t i = 0; i < n; ++i) {
    ++tally->attempted;
    rdfc::util::Result<rdfc::query::BgpQuery> q = svc->Parse(ReplayText(w, i));
    if (!q.ok()) {
      tally->Fail("Parse");
      continue;
    }
    rdfc::service::ProbeRequest req;
    req.query = std::move(*q);
    auto fut = svc->Submit(std::move(req));
    if (!fut.ok()) {
      tally->Fail("Submit: " + fut.status().ToString());
      continue;
    }
    counts.queue_us.push_back(fut->get().queue_micros);
  }
  s.svc.reset();

  Recovered rec = Recover(checkpoint, journal, tally, &tr);
  out.metrics["index.replayed_records"] = static_cast<double>(
      rec.svc->manager().journal_stats().records_replayed);
  rec.svc.reset();

  auto med = [&](const char* name) { return Median(tr.SelfMicros(name)); };
  std::map<std::string, double>& m = out.metrics;
  m["net.encode_us"] = med("net.codec");
  m["sparql.parse_us"] = med("sparql.Parse");
  m["query.signature_us"] = med("query.AnchorSignature");
  m["containment.prepare_us"] = med("containment.PrepareProbe");
  m["containment.verify_us"] = Median(counts.verify_us);
  m["containment.np_checks_per_probe"] = counts.np_checks / counts.probes;
  m["containment.contained_per_candidate"] =
      counts.candidates > 0 ? counts.contained / counts.candidates : 0;
  m["index.walk_us"] = med("index.FindParallel");
  m["index.shard_walk_max_us"] = Median(counts.shard_max_us);
  m["index.filter_us"] = Median(counts.filter_us);
  m["index.shards_probed_per_probe"] = counts.shards_probed / counts.probes;
  m["index.states_per_probe"] = counts.states / counts.probes;
  m["index.restore_s"] = med("index.RestoreTiered") / 1e6;
  m["index.replay_s"] = med("index.EnableJournal") / 1e6;
  m["service.stage_us"] = med("service.AddView");
  m["service.publish_us"] = med("service.Publish");
  m["service.delta_views_at_publish"] = Mean(writer.delta_at_publish);
  m["service.refreeze_s"] = med("service.Refreeze") / 1e6;
  m["service.queue_us"] = Median(counts.queue_us);
  m["service.parallel_walkers_per_probe"] = counts.walkers / counts.probes;
  if (!tr.Write(trace_path)) tally->Fail("writing " + trace_path);
  return out;
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, const Tally& t,
                 const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(t.attempted);
  line += ", \"failed\": " + std::to_string(t.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    line += buf;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

int Run(const Args& a) {
  const Workload w = MakeWorkload(a.workload, a.seed, a.seconds, a.quick);
  const std::string dir =
      a.out + "/" + a.workload + "-" + std::to_string(getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string journal = dir + "/serve.journal";
  const std::string checkpoint = dir + "/serve.ckpt";

  Tally tally;
  std::vector<Oracle::Query> corpus_q, reserve_q;
  for (const GenQuery& q : w.corpus) {
    corpus_q.push_back(Oracle::Compile(q, *w.dict));
  }
  for (const GenQuery& q : w.reserve) {
    reserve_q.push_back(Oracle::Compile(q, *w.dict));
  }
  std::printf("servebench: %s seed=%llu corpus=%zu probes=%zu "
              "unseen_constants=%zu publishes=%zu workers=%zu cpus=%zu\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              w.corpus.size(), w.probes.size(), w.unseen_constants,
              w.publishes.size(), ServeOptions().num_threads, Cpus());

  LoadResult open;
  const double closed_s = a.seconds * kClosedShare;
  const double open_s = a.seconds - closed_s;
  LoadGenerator::Reserve(&open, open_s, w.open_rate, w.burst);
  LiveLog log;
  log.Reserve(w.corpus.size() + w.reserve.size() + 1);

  const std::pair<double, double> steal0 = StealJiffies();
  // --- set-up (the serving instance is the first set-up sample) ---
  malloc_trim(0);
  const double rss0 = RssMiB();
  Tracer off(false);
  std::vector<double> setup_s;
  Served s = Setup(w, journal, &tally, &off);
  tally.attempted += w.corpus.size();
  setup_s.push_back(s.seconds);
  ContainmentService* svc = s.svc.get();
  for (std::size_t i = 0; i < s.ids.size(); ++i) {
    if (s.ids[i] == 0) continue;
    log.Staged(s.ids[i], &corpus_q[i]);
    log.Published(s.ids[i], s.version);
  }
  // The restart point: a checkpoint at a fixed point of the schedule.
  {
    const rdfc::util::Status st = svc->manager().SaveTiered(checkpoint);
    if (!st.ok()) tally.Fail("SaveTiered: " + st.ToString());
  }

  rdfc::net::NetServer server(svc, rdfc::net::ServerOptions{});
  if (!server.Start().ok()) {
    std::fprintf(stderr, "servebench: server did not start\n");
    return 2;
  }
  LoadGenerator gen(w, server.port());
  std::string error;
  if (!gen.Connect(&error)) {
    std::fprintf(stderr, "servebench: connect: %s\n", error.c_str());
    return 2;
  }

  // --- warm-up, then timed phases once no compaction is in flight ---
  std::size_t cursor = 0;
  LoadResult warm = gen.Closed(std::min(1.0, 0.1 * a.seconds), &cursor, false);
  while (svc->manager().compaction_in_flight()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const rdfc::service::MetricsSnapshot before = svc->Metrics();
  // The service's CPU time per answer under saturation is read per segment
  // of the closed loop.  No publish or compaction runs in this phase.
  LoadResult closed = gen.Closed(closed_s, &cursor, true);

  Writer writer(w, svc, &log, &reserve_q, s.ids);
  writer.gauges = a.trace != 0;
  Tally writes;
  std::thread publisher([&] {
    const std::int64_t t0 = NowNs();
    for (std::size_t k = 0; k < w.publishes.size(); ++k) {
      const std::int64_t due =
          t0 + static_cast<std::int64_t>(k * w.publish_period_ms * 1e6);
      const std::int64_t now = NowNs();
      if (due > now) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      }
      writer.Batch(&writes, &off, 0);
    }
  });
  gen.Open(open_s, w.open_rate, &cursor, &open);
  publisher.join();
  const rdfc::service::MetricsSnapshot after = svc->Metrics();
  const double dict_terms = static_cast<double>(svc->mutable_dict()->size());

  // --- correctness: oracle samples ---
  // Checked and released before memory is read: the sampled answers are the
  // benchmark's, not the service's.
  CheckSamples(closed.samples, w, log, &tally);
  CheckSamples(open.samples, w, log, &tally);
  const std::size_t oracle_samples =
      closed.samples.size() + open.samples.size();
  for (LoadResult* r : {&warm, &closed, &open}) {
    r->samples.clear();
    r->samples.shrink_to_fit();
  }
  // Both readings follow a trim, so that memory the allocator merely keeps
  // cached (it varies with which thread freed what) is not counted.
  malloc_trim(0);
  const double rss1 = RssMiB();

  for (LoadResult* r : {&warm, &closed, &open}) {
    tally.attempted += r->sent;
    tally.failed += r->failed;
    if (!r->first_error.empty()) tally.notes.push_back(r->first_error);
  }
  tally.attempted += writes.attempted;
  tally.failed += writes.failed;
  tally.notes.insert(tally.notes.end(), writes.notes.begin(),
                     writes.notes.end());

  // --- correctness: self-containment ---
  {
    std::vector<std::uint64_t> ids;
    std::vector<const GenQuery*> texts;
    const std::size_t self_n = a.quick ? 64 : 512;
    const std::size_t step = std::max<std::size_t>(1, s.ids.size() / self_n);
    for (std::size_t i = 0; i < s.ids.size(); i += step) {
      if (log.LiveAt(s.ids[i], LiveLog::kNever - 1)) {
        ids.push_back(s.ids[i]);
        texts.push_back(&w.corpus[i]);
      }
    }
    // Views added by the schedule: reserve entry k went to added[k].
    const std::size_t add_step =
        std::max<std::size_t>(1, writer.added.size() / self_n);
    for (std::size_t k = 0; k < writer.added.size(); k += add_step) {
      if (log.LiveAt(writer.added[k], LiveLog::kNever - 1)) {
        ids.push_back(writer.added[k]);
        texts.push_back(&w.reserve[k % w.reserve.size()]);
      }
    }
    CheckSelf(svc, ids, texts, &tally);
  }

  server.Shutdown();
  const std::uint64_t journal_bytes = BytesWithPrefix(dir, "serve.journal");
  s.svc.reset();
  svc = nullptr;
  const double disk_mb =
      static_cast<double>(BytesWithPrefix(dir, "serve.ckpt") + journal_bytes) /
      (1 << 20);

  // --- restart ---
  std::vector<double> recovery_s;
  do {
    Recovered r = Recover(checkpoint, journal, &tally, &off);
    if (recovery_s.empty()) {
      CheckRecovered(r.svc.get(), log, w, a.quick ? 16 : 64, &tally);
    }
    recovery_s.push_back(r.seconds);
  } while (a.trace == 0 && MoreRuns(recovery_s, 5, 3.0));

  std::vector<Metric> metrics;
  const std::size_t publishes = writer.publish_ms.size();
  std::vector<double> segment_rps, segment_cpu_us;
  for (std::size_t i = 0; i < closed.segment_completions.size(); ++i) {
    const std::uint64_t n = closed.segment_completions[i];
    segment_rps.push_back(static_cast<double>(n) / closed.segment_s);
    if (n > 0 && i < closed.segment_cpu_s.size()) {
      segment_cpu_us.push_back(closed.segment_cpu_s[i] * 1e6 /
                               static_cast<double>(n));
    }
  }
  if (a.trace == 0) {
    while (MoreRuns(setup_s, 5, 4.0)) {
      setup_s.push_back(
          Setup(w, dir + "/setup.journal", &tally, &off).seconds);
    }
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"probe_cpu_us", Median(segment_cpu_us), "us"},
        {"publish_p50_ms", Percentile(writer.publish_ms, 0.5), "ms"},
        {"recovery_s", Median(recovery_s), "s"},
        {"service_rss_mb", rss1 - rss0, "MiB"},
        {"disk_mb", disk_mb, "MiB"},
    };
  } else {
    const std::string trace_path = a.out + "/trace-" + a.workload + "-" +
                                   std::to_string(a.seed) + ".jsonl";
    Replay rep = RunReplay(w, dir, reserve_q, a.quick, trace_path, &tally);
    std::printf("servebench: trace written to %s\n", trace_path.c_str());
    std::printf("servebench: tracing overhead %.2f us per probe (%.1f%% of "
                "%.2f us untraced)\n",
                rep.overhead_us, 100.0 * rep.overhead_us / rep.untraced_us,
                rep.untraced_us);
    const double batches = static_cast<double>(after.batches - before.batches);
    const double batch_requests =
        static_cast<double>(after.batch_requests - before.batch_requests);
    const double responses = static_cast<double>(closed.sent + open.sent);
    std::map<std::string, double>& m = rep.metrics;
    m["net.outside_service_p50_us"] = Median(open.outside_us);
    m["net.outside_service_p99_us"] = Percentile(open.outside_us, 0.99);
    m["net.requests_per_batch"] = batches > 0 ? batch_requests / batches : 0;
    m["net.dedup_hits_per_probe"] =
        batch_requests > 0
            ? static_cast<double>(after.batch_dedup_hits -
                                  before.batch_dedup_hits) /
                  batch_requests
            : 0;
    m["net.response_bytes_per_probe"] =
        static_cast<double>(after.net_bytes_out - before.net_bytes_out) /
        responses;
    m["sparql.dict_terms"] = dict_terms;
    // Wall-clock throughput and latency.  They follow the host's CPU steal
    // too closely to carry a bound (README "Steadiness").
    m["probe_rps"] = Median(segment_rps);
    m["probe_p50_us"] =
        WindowedPercentile(open.latency_us, open.per_window, 0.5);
    m["probe_p99_us"] = Percentile(open.latency_us, 0.99);
    m["publish_p99_ms"] = Percentile(writer.publish_ms, 0.99);
    m["index.journal_bytes_per_publish"] =
        publishes > 0 ? static_cast<double>(journal_bytes) / publishes : 0;
    m["index.fsyncs_per_publish"] =
        publishes > 0 ? static_cast<double>(after.journal_fsyncs -
                                            before.journal_fsyncs) /
                            publishes
                      : 0;
    m["service.compactions"] =
        static_cast<double>(after.compactions - before.compactions);
    m["service.retained_versions"] = static_cast<double>(writer.max_retained);
    static const std::map<std::string, std::string> kUnits = {
        {"sparql.dict_terms", "count"},
        {"index.replayed_records", "count"},
        {"index.checkpoint_mb", "MiB"},
        {"index.journal_bytes_per_publish", "bytes"},
        {"net.response_bytes_per_probe", "bytes"},
        {"service.compactions", "count"},
        {"service.retained_versions", "count"},
        {"service.delta_views_at_publish", "count"},
        {"publish_p99_ms", "ms"},
        {"probe_rps", "1/s"},
    };
    for (const auto& [name, value] : m) {
      std::string unit = "ratio";
      if (auto it = kUnits.find(name); it != kUnits.end()) {
        unit = it->second;
      } else if (name.size() > 3 && name.substr(name.size() - 3) == "_us") {
        unit = "us";
      } else if (name.size() > 2 && name.substr(name.size() - 2) == "_s") {
        unit = "s";
      }
      metrics.push_back({name, value, unit});
    }
  }

  for (const std::string& note : tally.notes) {
    std::printf("servebench: %s\n", note.c_str());
  }
  std::printf("servebench: %s attempted=%llu failed=%llu incorrect=%llu "
              "oracle_samples=%zu\n",
              w.name.c_str(), static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.wrong), oracle_samples);
  const std::pair<double, double> steal1 = StealJiffies();
  if (steal1.second > steal0.second) {
    std::printf("servebench: host steal %.1f%% of CPU time during the run\n",
                100.0 * (steal1.first - steal0.first) /
                    (steal1.second - steal0.second));
  }
  if (!open.late_us.empty()) {
    std::printf("servebench: open loop %zu requests at %.0f/s, generator "
                "late p50 %.1f us p99 %.1f us\n",
                open.late_us.size(), w.open_rate,
                Percentile(open.late_us, 0.5), Percentile(open.late_us, 0.99));
  }
  fs::remove_all(dir);
  // Wrong answers and failed operations are reported in the result line;
  // a run that gets this far exits 0.
  PrintResult(tally.wrong == 0, tally, metrics);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (k == "--workload") {
      a->workload = val();
    } else if (k == "--seed") {
      a->seed = std::stoull(val());
    } else if (k == "--seconds") {
      a->seconds = std::stod(val());
    } else if (k == "--trace") {
      a->trace = std::stoi(val());
    } else if (k == "--quick") {
      a->quick = true;
    } else if (k == "--out") {
      a->out = val();

    } else {
      return false;
    }
  }
  return KnownWorkload(a->workload) && a->seconds > 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Args args;
  if (!servebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload watdiv_read|dbpedia_burst|"
                 "publish_churn [--seed N] [--seconds S] [--trace 0|1] "
                 "[--quick] [--out DIR]\n");
    return 2;
  }
  return servebench::Run(args);
}
