// rdfc_fuzz — volume differential tester for the containment stack.
//
//   rdfc_fuzz [--trials=N] [--seed=S] [--max-triples=K] [--verbose]
//   rdfc_fuzz --failpoints [--smoke] [--seed=S]
//
// Each trial draws random query pairs / index contents from a tiny
// vocabulary (to force collisions, merges, and containments) and
// cross-checks four independent implementations:
//
//   1. the witness-filter + NP-verify pipeline   (containment/pipeline)
//   2. the direct homomorphism search            (containment/homomorphism)
//   3. the Chandra-Merlin freeze characterisation (eval over freeze(Q))
//   4. the mv-index walk vs the pairwise scan    (index/cont_queries)
//
// --failpoints switches to the fault-injection campaign (requires a build
// with -DRDFC_FAILPOINTS=ON; otherwise it reports that and exits 0): random
// faults in persistence I/O, index publication, admission, budget expiry,
// and the write-ahead journal, with the resilience invariants checked after
// every injected failure — previous snapshots stay loadable, aborted
// publishes leave the current version untouched, degraded probes stay sound,
// acknowledged journal records always replay.  --smoke shrinks the round
// counts for CI.
//
// Exit code 0 = no divergence.  Any mismatch prints a minimal reproducer
// (the two queries in SPARQL) and exits 1.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <system_error>

#include <stdlib.h>  // mkdtemp is POSIX, not in <cstdlib>

#include "containment/homomorphism.h"
#include "containment/pipeline.h"
#include "eval/evaluator.h"
#include "index/frozen_index.h"
#include "index/journal.h"
#include "index/mv_index.h"
#include "index/persistence.h"
#include "index/validate.h"
#include "query/validate.h"
#include "service/containment_service.h"
#include "sparql/writer.h"
#include "tool_util.h"
#include "util/budget.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "workload/workload.h"

using namespace rdfc;  // NOLINT(build/namespaces)

namespace {

class QueryGen {
 public:
  QueryGen(rdf::TermDictionary* dict, std::uint64_t seed)
      : dict_(dict), rng_(seed) {
    for (int i = 0; i < 3; ++i) {
      preds_.push_back(dict_->MakeIri("urn:fz:p" + std::to_string(i)));
    }
    for (int i = 0; i < 2; ++i) {
      consts_.push_back(dict_->MakeIri("urn:fz:c" + std::to_string(i)));
    }
  }

  query::BgpQuery Draw(std::size_t max_triples, bool var_preds) {
    query::BgpQuery q;
    const std::size_t n = 1 + rng_.Uniform(0, max_triples - 1);
    const std::size_t vars = 1 + rng_.Uniform(0, 3);
    for (std::size_t i = 0; i < n; ++i) {
      rdf::TermId p = preds_[rng_.Uniform(0, preds_.size() - 1)];
      if (var_preds && rng_.Chance(0.12)) p = Var(10 + rng_.Uniform(0, 1));
      q.AddPattern(Term(vars, 0.85), p, Term(vars, 0.7));
    }
    return q;
  }

 private:
  rdf::TermId Var(std::size_t k) {
    return dict_->MakeVariable("fz" + std::to_string(k));
  }
  rdf::TermId Term(std::size_t vars, double var_prob) {
    if (rng_.Chance(var_prob)) return Var(rng_.Uniform(0, vars - 1));
    return consts_[rng_.Uniform(0, consts_.size() - 1)];
  }

  rdf::TermDictionary* dict_;
  util::Rng rng_;
  std::vector<rdf::TermId> preds_;
  std::vector<rdf::TermId> consts_;
};

int Report(const char* what, const query::BgpQuery& q,
           const query::BgpQuery& w, const rdf::TermDictionary& dict) {
  std::fprintf(stderr, "DIVERGENCE (%s)\nQ:\n%sW:\n%s", what,
               sparql::WriteQuery(q, dict).c_str(),
               sparql::WriteQuery(w, dict).c_str());
  return 1;
}

std::vector<std::uint32_t> ContainedIds(const index::ProbeResult& result) {
  std::vector<std::uint32_t> ids;
  ids.reserve(result.contained.size());
  for (const index::ProbeMatch& m : result.contained) ids.push_back(m.stored_id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

#ifdef RDFC_FAILPOINTS

int FailpointFail(const char* what, const util::Status& st) {
  std::fprintf(stderr, "FAILPOINT INVARIANT BROKEN (%s): %s\n", what,
               st.ToString().c_str());
  return 1;
}

/// The fault-injection campaign.  Each part configures a schedule, hammers
/// one subsystem, and checks its resilience contract after every injected
/// fault.  Deterministic given `seed`.  Every file it makes lives in `dir`.
int RunFailpointCampaignIn(const std::string& dir, std::uint64_t seed,
                           bool smoke, bool verbose) {
  auto& registry = util::FailpointRegistry::Instance();
  const std::size_t rounds = smoke ? 40 : 400;

  // --- Part 1: persistence.  A failed (or "crashed") save must leave the
  // previous image loadable with its live count; a successful one must load
  // to the new content.
  rdf::TermDictionary dict;
  QueryGen gen(&dict, seed);
  index::MvIndex index(&dict);
  for (int i = 0; i < 20; ++i) {
    (void)index.Insert(gen.Draw(4, i % 4 == 0), static_cast<std::uint64_t>(i));
  }
  const std::string frozen_path = dir + "/snapshot.fidx";
  if (auto st = index::SaveFrozenIndex(index::FrozenMvIndex(index),
                                       frozen_path);
      !st.ok()) {
    return FailpointFail("baseline frozen save", st);
  }
  std::size_t expected_live = index.num_live_entries();
  std::size_t save_failures = 0;
  if (auto st = registry.Configure(
          "persistence.open=0.2,persistence.write=0.2,"
          "persistence.fsync=0.2,persistence.crash=0.2",
          seed);
      !st.ok()) {
    return FailpointFail("configure", st);
  }
  for (std::size_t r = 0; r < rounds; ++r) {
    (void)index.Insert(gen.Draw(4, r % 5 == 0),
                       static_cast<std::uint64_t>(100 + r));
    const util::Status st =
        index::SaveFrozenIndex(index::FrozenMvIndex(index), frozen_path);
    // A committed save becomes the new expectation; a failed one must leave
    // the file holding exactly what the last committed save wrote.
    if (st.ok()) {
      expected_live = index.num_live_entries();
      continue;
    }
    ++save_failures;
    rdf::TermDictionary reload_dict;
    auto loaded = index::LoadFrozenIndex(frozen_path, &reload_dict);
    if (!loaded.ok()) {
      return FailpointFail("previous image unloadable after failed save",
                           loaded.status());
    }
    if ((*loaded)->num_live_entries() != expected_live) {
      return FailpointFail(
          "failed save mutated the previous image",
          util::Status::Internal("live-entry count changed under a failure"));
    }
  }
  if (save_failures == 0) {
    return FailpointFail("persistence schedule never fired",
                         util::Status::Internal("0 injected save failures"));
  }

  // --- Part 2: publication.  An aborted Publish must leave the current
  // version untouched and probes running; a later retry must succeed.
  registry.Reset();
  if (auto st = registry.Configure("publish.swing=0.5", seed + 1); !st.ok()) {
    return FailpointFail("configure publish", st);
  }
  {
    service::ServiceOptions options;
    options.num_threads = 2;
    service::ContainmentService svc(options);
    std::size_t publish_failures = 0;
    for (std::size_t r = 0; r < (smoke ? 20 : 100); ++r) {
      auto id = svc.AddView("ASK { ?s <urn:fp:p" + std::to_string(r) +
                            "> ?o }");
      if (!id.ok()) return FailpointFail("AddView", id.status());
      const std::uint64_t before = svc.current_version();
      auto version = svc.Publish();
      if (!version.ok()) {
        ++publish_failures;
        if (svc.current_version() != before) {
          return FailpointFail(
              "aborted publish advanced the version",
              util::Status::Internal("version moved on failure"));
        }
      }
      // Probing must keep working against whatever version is current.
      auto probe = svc.Probe("ASK { ?s <urn:fp:p0> ?o }");
      if (!probe.ok() &&
          probe.status().code() != util::StatusCode::kResourceExhausted) {
        return FailpointFail("probe after publish fault", probe.status());
      }
    }
    if (publish_failures == 0) {
      return FailpointFail("publish schedule never fired",
                           util::Status::Internal("0 injected aborts"));
    }
    // With the schedule cleared, the staged backlog must publish cleanly.
    registry.Reset();
    if (auto version = svc.Publish(); !version.ok()) {
      return FailpointFail("final publish", version.status());
    }
  }

  // --- Part 3: admission.  Injected ResourceExhausted must shed cleanly —
  // typed error out, service alive, later submissions succeeding.
  if (auto st = registry.Configure("threadpool.admit=0.4", seed + 2);
      !st.ok()) {
    return FailpointFail("configure admit", st);
  }
  {
    service::ServiceOptions options;
    options.num_threads = 2;
    service::ContainmentService svc(options);
    if (auto id = svc.AddView("ASK { ?s <urn:fp:q> ?o }"); !id.ok()) {
      return FailpointFail("AddView", id.status());
    }
    if (auto version = svc.Publish(); !version.ok()) {
      return FailpointFail("publish", version.status());
    }
    std::size_t shed = 0, served = 0;
    for (std::size_t r = 0; r < (smoke ? 50 : 300); ++r) {
      auto probe = svc.Probe("ASK { ?a <urn:fp:q> ?b }");
      if (probe.ok()) {
        ++served;
        if (probe->containing_views.size() != 1) {
          return FailpointFail(
              "wrong answer under admission faults",
              util::Status::Internal("expected exactly one containing view"));
        }
      } else if (probe.status().code() ==
                 util::StatusCode::kResourceExhausted) {
        ++shed;
      } else {
        return FailpointFail("unexpected admission error", probe.status());
      }
    }
    if (shed == 0 || served == 0) {
      return FailpointFail(
          "admission schedule degenerate",
          util::Status::Internal("expected both sheds and successes"));
    }
  }

  // --- Part 4: budget expiry.  With budget.expire firing on every poll,
  // probes must come back degraded-but-sound, never crash or hang: every
  // reported match must also be in the un-faulted truth.
  if (auto st = registry.Configure("budget.expire=1", seed + 3); !st.ok()) {
    return FailpointFail("configure budget", st);
  }
  {
    index::MvIndex adv_index(&dict);
    const workload::AdversarialCase hard =
        workload::MakeAdversarialCase(&dict, 4, 3);
    if (auto outcome = adv_index.Insert(hard.view, 0); !outcome.ok()) {
      return FailpointFail("adversarial insert", outcome.status());
    }
    for (int i = 0; i < 10; ++i) {
      (void)adv_index.Insert(gen.Draw(4, false),
                             static_cast<std::uint64_t>(1 + i));
    }
    for (std::size_t r = 0; r < (smoke ? 10 : 50); ++r) {
      const query::BgpQuery q = r == 0 ? hard.probe : gen.Draw(5, false);
      util::ProbeBudget budget;
      index::ProbeOptions options;
      options.budget = &budget;
      const index::ProbeResult degraded = adv_index.FindContaining(q, options);
      const index::ProbeResult truth = adv_index.ScanContaining(q);
      const std::vector<std::uint32_t> got = ContainedIds(degraded);
      const std::vector<std::uint32_t> want = ContainedIds(truth);
      if (!std::includes(want.begin(), want.end(), got.begin(), got.end())) {
        return FailpointFail(
            "degraded result over-reports",
            util::Status::Internal("contained ⊄ undegraded truth"));
      }
    }
    if (registry.FiredCount("budget.expire") == 0) {
      return FailpointFail("budget schedule never fired",
                           util::Status::Internal("0 expirations"));
    }
  }
  registry.Reset();

  // --- Part 5: compaction swing.  An injected compact.swing abort must
  // leave the published state untouched — same version, same answers, tier
  // identity intact — and a later un-faulted Refreeze must drain the delta.
  if (auto st = registry.Configure("compact.swing=0.5", seed + 4); !st.ok()) {
    return FailpointFail("configure compact", st);
  }
  {
    service::ServiceOptions options;
    options.num_threads = 2;
    options.tier.background_compaction = false;  // explicit Refreeze only
    service::ContainmentService svc(options);
    std::size_t live = 0, aborted = 0, refrozen = 0;
    for (std::size_t r = 0; r < (smoke ? 15 : 60); ++r) {
      const std::string tag = std::to_string(r);
      if (auto id = svc.AddView("ASK { ?s <urn:fp:c" + tag + "> ?o }");
          !id.ok()) {
        return FailpointFail("AddView", id.status());
      }
      if (auto version = svc.Publish(); !version.ok()) {
        return FailpointFail("publish before refreeze", version.status());
      }
      ++live;
      const std::uint64_t before = svc.manager().current_version();
      if (auto version = svc.Refreeze(); version.ok()) {
        ++refrozen;
      } else {
        ++aborted;
        if (svc.manager().current_version() != before) {
          return FailpointFail(
              "aborted refreeze moved the version",
              util::Status::Internal("published state changed on failure"));
        }
      }
      // Faulted or not, every published view keeps answering, and the
      // base/delta/tombstone split still accounts for every live view.
      auto probe = svc.Probe("ASK { ?a <urn:fp:c" + tag + "> ?b }");
      if (!probe.ok() || !probe->status.ok()) {
        return FailpointFail("probe after refreeze fault",
                             probe.ok() ? probe->status : probe.status());
      }
      if (probe->containing_views.size() != 1) {
        return FailpointFail(
            "wrong answer after refreeze fault",
            util::Status::Internal("expected exactly one containing view"));
      }
      const auto tiers = svc.manager().tier_stats();
      if (tiers.base_views - tiers.tombstones + tiers.delta_views != live) {
        return FailpointFail(
            "tier identity broken after refreeze fault",
            util::Status::Internal("base - tombstones + delta != live"));
      }
    }
    if (aborted == 0 || refrozen == 0) {
      return FailpointFail(
          "compaction schedule degenerate",
          util::Status::Internal("expected both aborts and successes"));
    }
    registry.Reset();
    if (auto version = svc.Refreeze(); !version.ok()) {
      return FailpointFail("final un-faulted refreeze", version.status());
    }
    const auto tiers = svc.manager().tier_stats();
    if (tiers.delta_views != 0 || tiers.tombstones != 0) {
      return FailpointFail(
          "refreeze left residue",
          util::Status::Internal("delta or tombstones nonzero after drain"));
    }
  }

  // --- Part 6: tiered persistence.  A crash injected between the base blob
  // and the manifest swing must leave the previous tiered image loadable,
  // bit-identical in its tier accounting.
  {
    const std::string tiered_path = dir + "/tiered.idx";
    rdf::TermDictionary tiered_dict;
    QueryGen tiered_gen(&tiered_dict, seed + 5);
    service::TierOptions tier;
    tier.background_compaction = false;
    service::IndexManager manager(&tiered_dict, {}, tier);
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 8; ++i) {
      if (auto id = manager.StageAdd(tiered_gen.Draw(3, false)); id.ok()) {
        ids.push_back(*id);
      }
    }
    if (auto version = manager.Publish(); !version.ok()) {
      return FailpointFail("tiered baseline publish", version.status());
    }
    if (auto version = manager.Refreeze(); !version.ok()) {
      return FailpointFail("tiered baseline refreeze", version.status());
    }
    if (auto st = manager.SaveTiered(tiered_path); !st.ok()) {
      return FailpointFail("tiered baseline save", st);
    }
    auto expected = manager.tier_stats();
    if (auto st = registry.Configure("compact.crash=0.5", seed + 5);
        !st.ok()) {
      return FailpointFail("configure tiered crash", st);
    }
    std::size_t crashed = 0, tiered_saved = 0;
    for (std::size_t r = 0; r < (smoke ? 15 : 60); ++r) {
      if (auto id = manager.StageAdd(tiered_gen.Draw(3, r % 5 == 0));
          id.ok()) {
        ids.push_back(*id);
      }
      if (r % 4 == 3 && ids.size() > 2) {
        (void)manager.StageRemove(ids.front());
        ids.erase(ids.begin());
      }
      if (auto version = manager.Publish(); !version.ok()) {
        return FailpointFail("tiered churn publish", version.status());
      }
      if (r % 3 == 2) {
        if (auto version = manager.Refreeze(); !version.ok()) {
          return FailpointFail("tiered churn refreeze", version.status());
        }
      }
      if (auto st = manager.SaveTiered(tiered_path); st.ok()) {
        ++tiered_saved;
        expected = manager.tier_stats();
      } else {
        ++crashed;
      }
      // Either way the manifest on disk must load to the image of the last
      // successful save.
      rdf::TermDictionary load_dict;
      service::IndexManager loaded(&load_dict, {}, tier);
      if (auto st = loaded.RestoreTiered(tiered_path); !st.ok()) {
        return FailpointFail("tiered image unloadable after crash", st);
      }
      const auto got = loaded.tier_stats();
      if (got.base_views != expected.base_views ||
          got.delta_views != expected.delta_views ||
          got.tombstones != expected.tombstones) {
        return FailpointFail(
            "restored tiered image mismatch",
            util::Status::Internal("tier accounting differs from last good "
                                   "save"));
      }
    }
    if (crashed == 0 || tiered_saved == 0) {
      return FailpointFail(
          "tiered crash schedule degenerate",
          util::Status::Internal("expected both crashes and successes"));
    }
    registry.Reset();
  }

  // --- Part 7: write-ahead journal.  Faults in the append/fsync path must
  // leave the acknowledged history exactly replayable: a failed Publish
  // keeps its staged intents so the SAME batch retries, every publish that
  // WAS acknowledged survives a re-open, a fault mid-replay stops on a
  // sound prefix without truncating (degraded: appends refused), and a
  // clean re-open after that recovers everything.
  std::size_t journal_faults = 0;
  {
    const std::string wal = dir + "/service.wal";
    const std::vector<std::string> probe_texts = {
        "ASK { ?a <urn:fz:p0> ?b . }",
        "ASK { ?a <urn:fz:p1> ?b . ?b <urn:fz:p2> ?c . }",
        "ASK { ?a <urn:fz:p2> <urn:fz:c0> . }",
        "ASK { ?a <urn:fz:p0> ?b . ?a <urn:fz:p1> <urn:fz:c1> . }",
    };
    index::JournalOptions jopts;
    jopts.path = wal;
    jopts.fsync = index::JournalFsync::kAlways;  // exercise the Sync() site
    service::ServiceOptions sopts;
    sopts.num_threads = 2;
    sopts.queue_capacity = 64;

    std::uint64_t acked = 0;
    std::vector<std::vector<std::uint64_t>> expected;
    {
      service::ContainmentService svc(sopts);
      if (auto st = svc.EnableJournal(jopts); !st.ok()) {
        return FailpointFail("journal enable", st);
      }
      if (auto st = registry.Configure(
              "journal.append=0.25,journal.fsync=0.25", seed + 6);
          !st.ok()) {
        return FailpointFail("configure journal faults", st);
      }
      util::Rng rng(seed + 6);
      std::vector<std::uint64_t> live;
      for (std::size_t r = 0; r < (smoke ? 20 : 120); ++r) {
        const std::size_t adds = 1 + rng.Uniform(0, 1);
        for (std::size_t a = 0; a < adds; ++a) {
          std::string text =
              "ASK { ?x <urn:fz:p" + std::to_string(rng.Uniform(0, 2)) +
              "> ?y . ";
          if (rng.Chance(0.5)) {
            text += "?y <urn:fz:p" + std::to_string(rng.Uniform(0, 2)) +
                    "> <urn:fz:c" + std::to_string(rng.Uniform(0, 1)) + "> . ";
          }
          text += "}";
          if (auto id = svc.AddView(text); id.ok()) live.push_back(*id);
        }
        if (live.size() > 6 && rng.Chance(0.4)) {
          (void)svc.RemoveView(live.front());
          live.erase(live.begin());
        }
        // Retry the SAME publish: an injected append/fsync failure leaves
        // the staged intents in place, so the batch lands exactly once.
        bool published = false;
        for (int attempt = 0; attempt < 64 && !published; ++attempt) {
          if (auto version = svc.Publish(); version.ok()) {
            published = true;
          } else {
            ++journal_faults;
          }
        }
        if (!published) {
          return FailpointFail(
              "journalled publish never succeeded",
              util::Status::Internal("64 retries exhausted"));
        }
        ++acked;
      }
      registry.Reset();
      if (svc.manager().journal_stats().last_sequence != acked) {
        return FailpointFail(
            "journal sequence drift",
            util::Status::Internal("last_sequence != acknowledged publishes"));
      }
      for (const std::string& text : probe_texts) {
        auto response = svc.Probe(text);
        if (!response.ok()) {
          return FailpointFail("baseline probe", response.status());
        }
        expected.push_back(response->containing_views);
      }
    }
    if (journal_faults == 0) {
      return FailpointFail(
          "journal fault schedule degenerate",
          util::Status::Internal("no append/fsync faults fired"));
    }

    // A fault mid-replay stops on a sound prefix WITHOUT truncating — the
    // unreplayed tail is acknowledged data.  The journal comes up degraded
    // and must refuse appends until a clean re-open replays everything.
    if (auto st = registry.Configure("journal.replay=0.4", seed + 7);
        !st.ok()) {
      return FailpointFail("configure replay fault", st);
    }
    bool saw_degraded = false;
    for (int attempt = 0; attempt < 8 && !saw_degraded; ++attempt) {
      service::ContainmentService svc(sopts);
      if (auto st = svc.EnableJournal(jopts); !st.ok()) {
        return FailpointFail("degraded open", st);
      }
      const index::JournalStats stats = svc.manager().journal_stats();
      if (stats.records_replayed > acked) {
        return FailpointFail(
            "degraded replay over-reported",
            util::Status::Internal("replayed more records than acknowledged"));
      }
      if (!stats.degraded) {
        if (stats.records_replayed != acked) {
          return FailpointFail(
              "records lost without degraded flag",
              util::Status::Internal("short replay reported as clean"));
        }
        continue;  // schedule happened not to fire this open; try again
      }
      saw_degraded = true;
      if (stats.truncated_bytes != 0) {
        return FailpointFail(
            "degraded replay truncated",
            util::Status::Internal("acknowledged records dropped on a "
                                   "replay fault"));
      }
      (void)svc.AddView("ASK { ?x <urn:fz:p0> ?y . }");
      if (svc.Publish().ok()) {
        return FailpointFail(
            "append accepted while degraded",
            util::Status::Internal("publish would overwrite unreplayed "
                                   "acknowledged records"));
      }
    }
    registry.Reset();
    if (!saw_degraded) {
      return FailpointFail(
          "replay fault schedule degenerate",
          util::Status::Internal("journal.replay never fired in 8 opens"));
    }

    // Recovered answers must match the pre-restart service bit-exactly.
    auto answers_diverge = [&](service::ContainmentService& svc) -> int {
      for (std::size_t i = 0; i < probe_texts.size(); ++i) {
        auto response = svc.Probe(probe_texts[i]);
        if (!response.ok()) {
          return FailpointFail("recovered probe", response.status());
        }
        if (response->containing_views != expected[i]) {
          return FailpointFail(
              "recovered answers diverge",
              util::Status::Internal("probe " + std::to_string(i) +
                                     " differs from the pre-restart service"));
        }
      }
      return 0;
    };

    // Clean re-open: every acknowledged publish replays, bit-exact answers.
    {
      service::ContainmentService svc(sopts);
      if (auto st = svc.EnableJournal(jopts); !st.ok()) {
        return FailpointFail("clean re-open", st);
      }
      const index::JournalStats stats = svc.manager().journal_stats();
      if (stats.degraded || stats.records_replayed != acked) {
        return FailpointFail(
            "clean re-open incomplete",
            util::Status::Internal("expected all acknowledged records to "
                                   "replay"));
      }
      if (int failed = answers_diverge(svc); failed != 0) return failed;
    }

    // A checkpoint that dies between its manifest commit and the journal
    // rebase leaves records the checkpoint covers in the journal.  Recovery
    // must skip them by the manifest's watermark — replaying one would add
    // an id the restored bases already hold — and answer as before.
    {
      const std::string ckpt = dir + "/service.ckpt";
      {
        service::ContainmentService svc(sopts);
        if (auto st = svc.EnableJournal(jopts); !st.ok()) {
          return FailpointFail("checkpoint open", st);
        }
        if (auto st = registry.Configure("checkpoint.rebase=1", seed + 8);
            !st.ok()) {
          return FailpointFail("configure rebase crash", st);
        }
        const util::Status saved = svc.manager().SaveTiered(ckpt);
        registry.Reset();
        if (saved.ok()) {
          return FailpointFail(
              "rebase crash schedule degenerate",
              util::Status::Internal("checkpoint.rebase did not fire"));
        }
      }
      service::ContainmentService svc(sopts);
      if (auto st = svc.manager().RestoreTiered(ckpt); !st.ok()) {
        return FailpointFail("restore after rebase crash", st);
      }
      if (auto st = svc.EnableJournal(jopts); !st.ok()) {
        return FailpointFail("replay after rebase crash", st);
      }
      const index::JournalStats stats = svc.manager().journal_stats();
      if (stats.records_replayed != 0 || stats.last_sequence != acked) {
        return FailpointFail(
            "covered records replayed",
            util::Status::Internal("records at or below the watermark must "
                                   "be skipped"));
      }
      if (int failed = answers_diverge(svc); failed != 0) return failed;
    }
  }

  if (verbose) {
    std::printf("failpoints: %zu save faults, %zu journal faults injected, "
                "all resilience invariants held\n",
                save_failures, journal_faults);
  } else {
    std::printf("OK (failpoints)\n");
  }
  return 0;
}

/// Runs the campaign in a fresh directory under $TMPDIR (default /tmp) and
/// removes the directory when it ends, whether the campaign passed or not.
int RunFailpointCampaign(std::uint64_t seed, bool smoke, bool verbose) {
  const char* tmpdir = std::getenv("TMPDIR");
  std::string tmpl = std::string(tmpdir != nullptr && *tmpdir != '\0'
                                     ? tmpdir
                                     : "/tmp") +
                     "/rdfc_fuzz_XXXXXX";
  if (mkdtemp(tmpl.data()) == nullptr) {
    return FailpointFail("campaign directory",
                         util::Status::Internal("mkdtemp failed: " + tmpl));
  }
  const int result = RunFailpointCampaignIn(tmpl, seed, smoke, verbose);
  std::error_code ignored;
  std::filesystem::remove_all(tmpl, ignored);
  return result;
}

#else  // !RDFC_FAILPOINTS

int RunFailpointCampaign(std::uint64_t, bool, bool) {
  std::printf("failpoints not compiled in (rebuild with -DRDFC_FAILPOINTS=ON);"
              " nothing to do\n");
  return 0;
}

#endif  // RDFC_FAILPOINTS

}  // namespace

int main(int argc, char** argv) {
  const tools::Args args = tools::Args::Parse(argc, argv);
  const auto trials = static_cast<std::size_t>(
      std::strtoull(args.Get("trials", "2000").c_str(), nullptr, 10));
  const auto seed = static_cast<std::uint64_t>(
      std::strtoull(args.Get("seed", "1").c_str(), nullptr, 10));
  const auto max_triples = std::max<std::size_t>(
      1, std::strtoull(args.Get("max-triples", "5").c_str(), nullptr, 10));
  const bool verbose = args.Has("verbose");

  if (args.Has("failpoints")) {
    return RunFailpointCampaign(seed, args.Has("smoke"), verbose);
  }

  rdf::TermDictionary dict;
  QueryGen gen(&dict, seed);
  std::size_t positives = 0;

  // Phase 1: pairwise cross-checks.
  for (std::size_t t = 0; t < trials; ++t) {
    const bool var_preds = t % 3 == 0;
    const query::BgpQuery q = gen.Draw(max_triples, var_preds);
    const query::BgpQuery w = gen.Draw(max_triples - 1, var_preds);

    // Self-verification: Algorithm 1 must produce a grammatical stream that
    // parses back to the query it encodes (query/validate.h).
    if (!var_preds) {
      if (auto st = query::ValidateRoundTrip(q, &dict); !st.ok()) {
        std::fprintf(stderr, "round-trip: %s\n", st.ToString().c_str());
        return Report("serialisation round-trip", q, w, dict);
      }
    }

    const bool truth = containment::IsContainedIn(q, w, dict);
    positives += truth ? 1 : 0;

    auto outcome = containment::Check(q, w, &dict);
    if (!outcome.ok() || outcome->contained != truth) {
      return Report("pipeline vs homomorphism", q, w, dict);
    }
    if (truth && !outcome->filter_passed) {
      return Report("Proposition 5.1 violated", q, w, dict);
    }
    if (!var_preds) {
      rdf::Graph frozen = eval::Freeze(q, &dict);
      if (eval::Ask(w, frozen, dict) != truth) {
        return Report("freeze characterisation", q, w, dict);
      }
    }
  }

  // Phase 2: index walk vs pairwise scan over batches, with the full
  // invariant suite (index/validate.h) re-checked after every mutation and a
  // churn step removing a third of the entries mid-batch.
  util::Rng churn_rng(seed ^ 0x9E3779B97F4A7C15ull);
  const std::size_t batches = std::max<std::size_t>(1, trials / 200);
  for (std::size_t b = 0; b < batches; ++b) {
    index::MvIndex index(&dict);
    std::vector<query::BgpQuery> views;
    std::vector<std::uint32_t> inserted_ids;
    for (int i = 0; i < 50; ++i) {
      query::BgpQuery w = gen.Draw(4, /*var_preds=*/i % 4 == 0);
      auto outcome = index.Insert(w, static_cast<std::uint64_t>(i));
      if (!outcome.ok()) continue;
      inserted_ids.push_back(outcome->stored_id);
      views.push_back(std::move(w));
      if (auto st = index::ValidateMvIndex(index); !st.ok()) {
        std::fprintf(stderr, "after insertion %d: %s\n", i,
                     st.ToString().c_str());
        query::BgpQuery empty;
        return Report("mv-index invariants (insert)", views.back(), empty,
                      dict);
      }
      if (auto st = index::ValidateFrozen(index::FrozenMvIndex(index));
          !st.ok()) {
        std::fprintf(stderr, "frozen after insertion %d: %s\n", i,
                     st.ToString().c_str());
        query::BgpQuery empty;
        return Report("frozen invariants (insert)", views.back(), empty, dict);
      }
    }
    for (std::size_t i = 0; i < inserted_ids.size(); ++i) {
      if (!churn_rng.Chance(0.33)) continue;
      const std::uint32_t id = inserted_ids[i];
      if (!index.alive(id)) continue;  // deduped onto an entry removed below
      if (auto st = index.Remove(id); !st.ok()) {
        std::fprintf(stderr, "remove(%u): %s\n", id, st.ToString().c_str());
        query::BgpQuery empty;
        return Report("mv-index removal", views[i], empty, dict);
      }
      if (auto st = index::ValidateMvIndex(index); !st.ok()) {
        std::fprintf(stderr, "after removal of %u: %s\n", id,
                     st.ToString().c_str());
        query::BgpQuery empty;
        return Report("mv-index invariants (remove)", views[i], empty, dict);
      }
      if (auto st = index::ValidateFrozen(index::FrozenMvIndex(index));
          !st.ok()) {
        std::fprintf(stderr, "frozen after removal of %u: %s\n", id,
                     st.ToString().c_str());
        query::BgpQuery empty;
        return Report("frozen invariants (remove)", views[i], empty, dict);
      }
    }
    const index::FrozenMvIndex frozen(index);
    for (int i = 0; i < 25; ++i) {
      const query::BgpQuery q = gen.Draw(5, i % 2 == 0);
      const auto walk = index.FindContaining(q);
      const auto scan = index.ScanContaining(q);
      if (walk.contained.size() != scan.contained.size()) {
        std::fprintf(stderr, "walk=%zu scan=%zu\n", walk.contained.size(),
                     scan.contained.size());
        query::BgpQuery empty;
        return Report("index walk vs scan", q, empty, dict);
      }
      // The frozen walk must agree with the pointer walk id-for-id, not just
      // in count — stored ids are carried over verbatim at freeze.
      if (ContainedIds(frozen.FindContaining(q)) != ContainedIds(walk)) {
        query::BgpQuery empty;
        return Report("frozen walk vs pointer walk", q, empty, dict);
      }
    }
  }

  if (verbose) {
    std::printf("fuzz: %zu trials, %zu containment positives (%.1f%%), "
                "%zu index batches — all implementations agree\n",
                trials, positives,
                100.0 * static_cast<double>(positives) /
                    static_cast<double>(trials),
                batches);
  } else {
    std::printf("OK (%zu trials)\n", trials);
  }
  return 0;
}
