#include "gen.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "sparql/writer.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace servebench {

namespace {

using rdfc::query::BgpQuery;
using rdfc::rdf::TermDictionary;
using rdfc::rdf::TermId;
using rdfc::rdf::Triple;
using rdfc::util::Rng;

std::vector<GenQuery> Render(std::vector<BgpQuery> queries,
                             const TermDictionary& dict) {
  std::vector<GenQuery> out;
  out.reserve(queries.size());
  for (BgpQuery& q : queries) {
    out.push_back({std::move(q), {}});
    out.back().text = rdfc::sparql::WriteQuery(out.back().query, dict);
  }
  return out;
}

std::size_t Draw(Rng* r, std::size_t n) {
  return static_cast<std::size_t>(r->Uniform(0, n - 1));
}

/// Constants of a set of views, most frequent first, so that a Zipf draw
/// over them keeps the generators' popularity skew.
struct Vocabulary {
  std::vector<TermId> predicates;
  std::vector<TermId> entities;  // subject/object IRIs, rdf:type objects not

  Vocabulary(const std::vector<GenQuery>& views, const TermDictionary& dict) {
    const TermId type =
        dict.Lookup(rdfc::rdf::TermKind::kIri,
                    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
    std::unordered_map<TermId, std::size_t> preds, ents;
    for (const GenQuery& v : views) {
      for (const Triple& t : v.query.patterns()) {
        if (dict.IsConstant(t.p)) ++preds[t.p];
        if (t.p == type) continue;
        for (TermId e : {t.s, t.o}) {
          if (dict.kind(e) == rdfc::rdf::TermKind::kIri) ++ents[e];
        }
      }
    }
    predicates = ByCount(preds);
    entities = ByCount(ents);
  }

  static std::vector<TermId> ByCount(
      const std::unordered_map<TermId, std::size_t>& counts) {
    std::vector<std::pair<std::size_t, TermId>> v;
    for (const auto& [id, n] : counts) v.push_back({n, id});
    std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    std::vector<TermId> out;
    for (const auto& e : v) out.push_back(e.second);
    return out;
  }

  TermId Predicate(Rng* r) const {
    return predicates[r->Zipf(predicates.size(), 1.0)];
  }
  TermId Entity(Rng* r) const {
    return entities[r->Zipf(entities.size(), 1.0)];
  }
};

/// A probe contained in `view`: half the time one non-distinguished
/// variable is bound to a constant, then one or two triples are added at a
/// remaining variable.  The identity on the other variables maps the view
/// into the probe.
BgpQuery Specialise(const BgpQuery& view, const Vocabulary& vocab, Rng* r,
                    TermDictionary* dict) {
  const std::vector<TermId>& selected = view.distinguished();
  std::vector<TermId> free;
  for (TermId t : view.Variables(*dict)) {
    if (std::find(selected.begin(), selected.end(), t) == selected.end()) {
      free.push_back(t);
    }
  }
  TermId victim = rdfc::rdf::kNullTerm;
  TermId constant = rdfc::rdf::kNullTerm;
  if (!free.empty() && r->Chance(0.5)) {
    const std::size_t at = Draw(r, free.size());
    victim = free[at];
    constant = vocab.Entity(r);
    free.erase(free.begin() + static_cast<std::ptrdiff_t>(at));
  }
  auto bind = [&](TermId t) { return t == victim ? constant : t; };
  BgpQuery q;
  for (TermId d : selected) q.AddDistinguished(d);
  for (const Triple& t : view.patterns()) {
    q.AddPattern(bind(t.s), bind(t.p), bind(t.o));
  }
  free.push_back(selected.front());
  const auto extra = r->Uniform(1, 2);
  for (std::uint64_t e = 0; e < extra; ++e) {
    const TermId at = free[Draw(r, free.size())];
    const TermId object = r->Chance(0.5)
                              ? vocab.Entity(r)
                              : dict->MakeVariable("e" + std::to_string(e));
    q.AddPattern(at, vocab.Predicate(r), object);
  }
  return q;
}

/// A probe contained in each of `parts`: their conjunction, joined on each
/// part's first distinguished variable, with the other variables renamed
/// apart.
BgpQuery Conjoin(const std::vector<const BgpQuery*>& parts,
                 TermDictionary* dict) {
  BgpQuery q;
  const TermId anchor = dict->MakeVariable("a");
  q.AddDistinguished(anchor);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    std::unordered_map<TermId, TermId> rename;
    rename[parts[i]->distinguished().front()] = anchor;
    auto var = [&](TermId t) {
      if (!dict->IsVariable(t)) return t;
      auto it = rename.find(t);
      if (it == rename.end()) {
        it = rename
                 .emplace(t, dict->MakeVariable(
                                 "p" + std::to_string(i) + "_" +
                                 std::to_string(rename.size())))
                 .first;
      }
      return it->second;
    };
    for (const Triple& t : parts[i]->patterns()) {
      q.AddPattern(var(t.s), var(t.p), var(t.o));
    }
  }
  return q;
}

/// Adds `q` unless its text was seen; returns whether it was added.
bool AddDistinct(BgpQuery q, const TermDictionary& dict,
                 std::unordered_set<std::string>* seen,
                 std::vector<GenQuery>* out) {
  std::string text = rdfc::sparql::WriteQuery(q, dict);
  if (!seen->insert(text).second) return false;
  out->push_back({std::move(q), std::move(text)});
  return true;
}

/// Four probes in five specialise a view of the log (drawn as the log
/// recurs); the fifth is a query of another WatDiv log, answered by
/// whatever generalises it, often nothing.
std::vector<GenQuery> WatdivProbes(const std::vector<GenQuery>& views,
                                   std::size_t n, std::uint64_t seed, Rng* r,
                                   TermDictionary* dict) {
  const Vocabulary vocab(views, *dict);
  const std::vector<BgpQuery> fresh =
      rdfc::workload::GenerateWatdiv(dict, n / 2 + 1, seed ^ 0x5eedf00dull);
  std::size_t next_fresh = 0;
  std::unordered_set<std::string> seen;
  std::vector<GenQuery> out;
  out.reserve(n);
  while (out.size() < n) {
    if (r->Chance(0.2)) {
      AddDistinct(fresh[next_fresh++ % fresh.size()], *dict, &seen, &out);
    } else {
      AddDistinct(Specialise(views[Draw(r, views.size())].query, vocab, r,
                             dict),
                  *dict, &seen, &out);
    }
  }
  return out;
}

/// Each probe conjoins two to four views of the log, drawn as the log
/// recurs, so every popular view and its repeats answer for it.  A share
/// `unseen_share` of probes also carries an IRI that no view has, like the
/// long tail of entity IRIs in a real log.
std::vector<GenQuery> DbpediaProbes(const std::vector<GenQuery>& views,
                                    std::size_t n, double unseen_share,
                                    std::uint64_t seed, Rng* r,
                                    TermDictionary* dict,
                                    std::size_t* unseen) {
  const Vocabulary vocab(views, *dict);
  std::unordered_set<std::string> seen;
  std::vector<GenQuery> out;
  out.reserve(n);
  while (out.size() < n) {
    std::vector<const BgpQuery*> parts(r->Uniform(2, 4));
    for (const BgpQuery*& p : parts) p = &views[Draw(r, views.size())].query;
    BgpQuery q = Conjoin(parts, dict);
    const bool tail = r->Chance(unseen_share);
    if (tail) {
      q.AddPattern(q.distinguished().front(), vocab.Predicate(r),
                   dict->MakeIri("http://dbpedia.org/resource/Unseen_" +
                                 std::to_string(seed) + "_" +
                                 std::to_string(*unseen)));
    }
    if (AddDistinct(std::move(q), *dict, &seen, &out) && tail) ++*unseen;
  }
  return out;
}

std::vector<std::uint32_t> Shuffled(std::size_t n, Rng* r) {
  std::vector<std::uint32_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = n; i > 1; --i) std::swap(out[i - 1], out[Draw(r, i)]);
  return out;
}

std::vector<PublishBatch> Schedule(const Workload& w, double seconds,
                                   std::uint32_t adds, std::uint32_t removes) {
  const double open_ms = seconds * (1.0 - kClosedShare) * 1000.0;
  const auto n = static_cast<std::size_t>(open_ms / w.publish_period_ms);
  return std::vector<PublishBatch>(n, PublishBatch{adds, removes});
}

template <typename T>
std::vector<T> Interleave(std::vector<T> a, std::vector<T> b) {
  std::vector<T> out;
  out.reserve(a.size() + b.size());
  for (std::size_t i = 0; i < a.size() || i < b.size(); ++i) {
    if (i < a.size()) out.push_back(std::move(a[i]));
    if (i < b.size()) out.push_back(std::move(b[i]));
  }
  return out;
}

}  // namespace

bool KnownWorkload(const std::string& name) {
  return name == "watdiv_read" || name == "dbpedia_burst" ||
         name == "publish_churn";
}

Workload MakeWorkload(const std::string& name, std::uint64_t seed,
                      double seconds, bool quick) {
  using rdfc::workload::GenerateDbpedia;
  using rdfc::workload::GenerateWatdiv;
  Workload w;
  w.name = name;
  w.remove_seed = seed * 31 + 7;
  w.dict = std::make_unique<TermDictionary>();
  TermDictionary* dict = w.dict.get();
  Rng r(seed);
  const double q = quick ? 0.05 : 1.0;
  auto count = [q](std::size_t full) {
    return std::max<std::size_t>(64, static_cast<std::size_t>(full * q));
  };
  // Views the schedule adds come from the same generator under the next
  // seed: the log goes on.
  const std::uint64_t later = seed + 1;

  if (name == "watdiv_read") {
    w.corpus = Render(GenerateWatdiv(dict, count(30000), seed), *dict);
    w.probes = WatdivProbes(w.corpus, count(60000), seed, &r, dict);
    w.requests = Shuffled(w.probes.size(), &r);
    w.open_rate = quick ? 800 : 1500;
    w.publish_period_ms = 11;
    w.publishes = Schedule(w, seconds, 1, 1);
    w.reserve =
        Render(GenerateWatdiv(dict, w.publishes.size() + 1, later), *dict);
  } else if (name == "dbpedia_burst") {
    w.corpus = Render(GenerateDbpedia(dict, count(6000), seed), *dict);
    w.probes = DbpediaProbes(w.corpus, count(4096), 0.25, seed, &r, dict,
                             &w.unseen_constants);
    w.burst = 8;
    for (std::uint32_t p : Shuffled(w.probes.size(), &r)) {
      for (std::uint32_t b = 0; b < w.burst; ++b) w.requests.push_back(p);
    }
    w.open_rate = quick ? 1600 : 2000;
    w.closed_depth = 64;
    w.oracle_every = 64;
    w.publish_period_ms = 6;
    w.publishes = Schedule(w, seconds, 1, 1);
    w.reserve =
        Render(GenerateDbpedia(dict, w.publishes.size() + 1, later), *dict);
  } else {  // publish_churn
    std::vector<GenQuery> a =
        Render(GenerateWatdiv(dict, count(6000), seed), *dict);
    std::vector<GenQuery> b =
        Render(GenerateDbpedia(dict, count(4000), seed), *dict);
    std::vector<GenQuery> wp = WatdivProbes(a, count(12000), seed, &r, dict);
    std::vector<GenQuery> dp = DbpediaProbes(b, count(4000), 0.0, seed, &r,
                                             dict, &w.unseen_constants);
    w.corpus = Interleave(std::move(a), std::move(b));
    w.probes = Interleave(std::move(wp), std::move(dp));
    w.requests = Shuffled(w.probes.size(), &r);
    w.open_rate = quick ? 600 : 1500;
    w.publish_period_ms = 12;
    w.publishes = Schedule(w, seconds, 4, 4);
    const std::size_t half = w.publishes.size() * 2 + 1;
    w.reserve =
        Interleave(Render(GenerateWatdiv(dict, half, later), *dict),
                   Render(GenerateDbpedia(dict, half, later), *dict));
  }
  return w;
}

}  // namespace servebench
