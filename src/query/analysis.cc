#include "query/analysis.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>

#include "query/serialisation.h"
#include "util/bytes.h"
#include "util/union_find.h"

namespace rdfc {
namespace query {

namespace {

std::uint64_t PairKey(rdf::TermId a, rdf::TermId b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

}  // namespace

bool IsFGraph(const BgpQuery& query) {
  // Condition (i): at most one object per (subject, predicate).
  // Condition (ii): at most one subject per (predicate, object).
  std::unordered_map<std::uint64_t, rdf::TermId> sp_to_o;
  std::unordered_map<std::uint64_t, rdf::TermId> po_to_s;
  for (const rdf::Triple& t : query.patterns()) {
    auto [it1, fresh1] = sp_to_o.emplace(PairKey(t.s, t.p), t.o);
    if (!fresh1 && it1->second != t.o) return false;
    auto [it2, fresh2] = po_to_s.emplace(PairKey(t.p, t.o), t.s);
    if (!fresh2 && it2->second != t.s) return false;
  }
  return true;
}

bool IsAcyclic(const BgpQuery& query) {
  const std::vector<rdf::TermId> vertices = query.Vertices();
  std::unordered_map<rdf::TermId, std::uint32_t> index_of;
  index_of.reserve(vertices.size());
  for (std::uint32_t i = 0; i < vertices.size(); ++i) index_of[vertices[i]] = i;

  util::UnionFind uf(vertices.size());
  for (const rdf::Triple& t : query.patterns()) {
    if (t.s == t.o) return false;  // self-loop
    const std::uint32_t a = index_of[t.s];
    const std::uint32_t b = index_of[t.o];
    if (uf.Same(a, b)) return false;  // closes a cycle (incl. parallel edges)
    uf.Union(a, b);
  }
  return true;
}

ComponentAssignment ConnectedComponents(const BgpQuery& query,
                                        const rdf::TermDictionary& dict,
                                        bool exclude_var_predicates) {
  ComponentAssignment out;
  out.vertices = query.Vertices();
  std::unordered_map<rdf::TermId, std::uint32_t> index_of;
  index_of.reserve(out.vertices.size());
  for (std::uint32_t i = 0; i < out.vertices.size(); ++i) {
    index_of[out.vertices[i]] = i;
  }

  util::UnionFind uf(out.vertices.size());
  for (const rdf::Triple& t : query.patterns()) {
    if (exclude_var_predicates && dict.IsVariable(t.p)) continue;
    uf.Union(index_of[t.s], index_of[t.o]);
  }

  // Densify component ids in first-appearance order.
  std::unordered_map<std::uint32_t, std::uint32_t> dense;
  out.component_of.resize(out.vertices.size());
  for (std::uint32_t i = 0; i < out.vertices.size(); ++i) {
    const std::uint32_t root = uf.Find(i);
    auto [it, fresh] = dense.emplace(root, out.num_components);
    if (fresh) ++out.num_components;
    out.component_of[i] = it->second;
  }
  return out;
}

std::vector<BgpQuery> SplitComponents(
    const BgpQuery& query, const rdf::TermDictionary& dict,
    bool exclude_var_predicates,
    std::vector<rdf::Triple>* var_pred_patterns) {
  const ComponentAssignment assignment =
      ConnectedComponents(query, dict, exclude_var_predicates);
  std::unordered_map<rdf::TermId, std::uint32_t> component_of_term;
  for (std::uint32_t i = 0; i < assignment.vertices.size(); ++i) {
    component_of_term[assignment.vertices[i]] = assignment.component_of[i];
  }

  std::vector<BgpQuery> components(assignment.num_components);
  for (const rdf::Triple& t : query.patterns()) {
    if (exclude_var_predicates && dict.IsVariable(t.p)) {
      if (var_pred_patterns != nullptr) var_pred_patterns->push_back(t);
      continue;
    }
    components[component_of_term[t.s]].AddPattern(t);
  }
  // With var-predicate patterns excluded, some components can end up empty
  // (a vertex only touched by var-predicate triples); drop those.
  std::vector<BgpQuery> out;
  out.reserve(components.size());
  for (BgpQuery& c : components) {
    if (!c.empty()) out.push_back(std::move(c));
  }
  return out;
}

std::uint64_t AnchorSignature(const BgpQuery& query,
                              const rdf::TermDictionary& dict) {
  if (query.empty()) return 0;
  const rdf::TermId anchor = ChooseAnchor(query);

  // One hash per anchor-incident edge: direction tag, the predicate's
  // lexical form (a fixed marker for variable predicates — they canonicalise
  // away), and for rdf:type edges the class object, so signatures separate
  // by the anchor's class set, not just "has a type edge".
  auto edge_hash = [&](const char* tag, rdf::TermId pred, rdf::TermId other) {
    constexpr std::string_view kVar = "?";
    std::uint64_t h = util::Fnv1a(tag);
    h = util::Fnv1a(dict.IsVariable(pred) ? kVar : dict.lexical(pred), h);
    if (!dict.IsVariable(pred) &&
        dict.lexical(pred) ==
            "http://www.w3.org/1999/02/22-rdf-syntax-ns#type") {
      h = util::Fnv1a(dict.IsConstant(other) ? dict.lexical(other) : kVar, h);
    }
    return h;
  };

  std::vector<std::uint64_t> edges;
  edges.reserve(query.size());
  for (const rdf::Triple& t : query.patterns()) {
    if (t.s == anchor) edges.push_back(edge_hash("+", t.p, t.o));
    if (t.o == anchor) edges.push_back(edge_hash("-", t.p, t.s));
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  std::uint64_t h = util::kFnv1aOffset;
  for (const std::uint64_t e : edges) h = util::Fnv1aU64(e, h);
  return h == 0 ? 1 : h;  // reserve 0 for "empty query"
}

QueryShape AnalyzeShape(const BgpQuery& query,
                        const rdf::TermDictionary& dict) {
  QueryShape shape;
  shape.is_fgraph = IsFGraph(query);
  shape.is_acyclic = IsAcyclic(query);
  shape.num_triples = static_cast<std::uint32_t>(query.size());

  bool only_iri = true;
  bool has_var = false;
  for (const rdf::Triple& t : query.patterns()) {
    if (dict.IsVariable(t.p)) {
      has_var = true;
      only_iri = false;
    } else if (!dict.IsIri(t.p)) {
      only_iri = false;
    }
  }
  shape.only_iri_predicates = only_iri;
  shape.has_var_predicates = has_var;

  const ComponentAssignment assignment =
      ConnectedComponents(query, dict, /*exclude_var_predicates=*/false);
  shape.num_components = assignment.num_components;
  shape.num_vertices = static_cast<std::uint32_t>(assignment.vertices.size());
  return shape;
}

}  // namespace query
}  // namespace rdfc
