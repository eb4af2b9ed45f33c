#include "oracle.h"

#include <algorithm>

namespace servebench {

namespace {

constexpr std::uint32_t kVarBit = 0x80000000u;

bool IsVar(std::uint32_t t) { return (t & kVarBit) != 0; }

std::uint64_t Bloom(std::uint32_t constant) {
  return 1ull << ((constant * 0x9e3779b1u) >> 26);
}

/// σ search: extends `sigma` (view var index -> probe term, 0 = unbound) over
/// view triples [at, end).
bool Extend(const Oracle::Query& probe, const Oracle::Query& view,
            std::size_t at, std::vector<std::uint32_t>* sigma) {
  if (at == view.triples.size()) return true;
  const auto& w = view.triples[at];
  for (const auto& q : probe.triples) {
    std::array<std::uint32_t, 3> bound{};
    bool ok = true;
    for (int i = 0; i < 3 && ok; ++i) {
      if (!IsVar(w[i])) {
        ok = w[i] == q[i];
        continue;
      }
      const std::uint32_t v = w[i] & ~kVarBit;
      const std::uint32_t image = (*sigma)[v];
      if (image == 0) {
        // A variable repeated inside one triple must map consistently.
        for (int j = 0; j < i && ok; ++j) {
          if (w[j] == w[i]) ok = q[j] == q[i];
        }
        if (ok) bound[i] = 1;
      } else {
        ok = image == q[i];
      }
    }
    if (!ok) continue;
    for (int i = 0; i < 3; ++i) {
      if (bound[i] != 0) (*sigma)[w[i] & ~kVarBit] = q[i];
    }
    if (Extend(probe, view, at + 1, sigma)) return true;
    for (int i = 0; i < 3; ++i) {
      if (bound[i] != 0) (*sigma)[w[i] & ~kVarBit] = 0;
    }
  }
  return false;
}

}  // namespace

Oracle::Query Oracle::Compile(const GenQuery& q,
                              const rdfc::rdf::TermDictionary& dict) {
  Query out;
  std::vector<std::pair<rdfc::rdf::TermId, std::uint32_t>> vars;
  auto id_of = [&](rdfc::rdf::TermId term) -> std::uint32_t {
    if (dict.IsConstant(term)) {
      // Term ids are never 0, so 0 can mean "unbound" in σ.
      out.constant_mask |= Bloom(term);
      return term;
    }
    for (const auto& [t, v] : vars) {
      if (t == term) return kVarBit | v;
    }
    vars.push_back({term, out.num_vars});
    return kVarBit | out.num_vars++;
  };
  for (const rdfc::rdf::Triple& t : q.query.patterns()) {
    out.triples.push_back({id_of(t.s), id_of(t.p), id_of(t.o)});
  }
  // Most constrained view triples first: fewer candidates near the root.
  std::stable_sort(out.triples.begin(), out.triples.end(),
                   [](const auto& a, const auto& b) {
                     auto consts = [](const auto& t) {
                       return !IsVar(t[0]) + !IsVar(t[1]) + !IsVar(t[2]);
                     };
                     return consts(a) > consts(b);
                   });
  return out;
}

bool Oracle::Contained(const Query& probe, const Query& view) {
  if ((view.constant_mask & ~probe.constant_mask) != 0) return false;
  // σ images are probe terms: constants keep their ids and probe variables
  // are frozen as kVarBit-tagged ids, which never equal a view constant.
  std::vector<std::uint32_t> sigma(view.num_vars, 0);
  return Extend(probe, view, 0, &sigma);
}

void LiveLog::Staged(std::uint64_t id, const Oracle::Query* view) {
  if (views_.size() < id) views_.resize(id);
  views_[id - 1].view = view;
}

void LiveLog::Published(std::uint64_t id, std::uint64_t version) {
  views_[id - 1].added = version;
}

void LiveLog::Removed(std::uint64_t id, std::uint64_t version) {
  views_[id - 1].removed = version;
}

bool LiveLog::LiveAt(std::uint64_t id, std::uint64_t version) const {
  if (id == 0 || id > views_.size()) return false;
  const Entry& e = views_[id - 1];
  return e.added != kNever && e.added <= version &&
         (e.removed == kNever || version < e.removed);
}

std::uint64_t LiveLog::removed_at(std::uint64_t id) const {
  return id == 0 || id > views_.size() ? kNever : views_[id - 1].removed;
}

std::vector<std::uint64_t> LiveLog::LiveNow() const {
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < views_.size(); ++i) {
    if (views_[i].added != kNever && views_[i].removed == kNever) {
      out.push_back(i + 1);
    }
  }
  return out;
}

std::vector<std::uint64_t> LiveLog::Answer(const Oracle::Query& probe,
                                           std::uint64_t version) const {
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < views_.size(); ++i) {
    if (LiveAt(i + 1, version) && views_[i].view != nullptr &&
        Oracle::Contained(probe, *views_[i].view)) {
      out.push_back(i + 1);
    }
  }
  return out;
}

}  // namespace servebench
