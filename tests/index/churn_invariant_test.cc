// Randomized insert/remove churn with full structural invariant checking:
// after every batch of operations the Radix tree must (a) be a proper tree,
// (b) contain exactly the serialised path of every live entry terminating at
// a vertex holding its id, (c) hold no empty leaves or redundant unary
// chains, and (d) answer probes identically to the pairwise scan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <unordered_set>

#include "index/mv_index.h"
#include "index/persistence.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace rdfc {
namespace index {
namespace {

/// Walks `tokens` from the root; returns the terminal vertex or nullptr.
const RadixNode* WalkPath(const RadixNode& root,
                          const std::vector<query::Token>& tokens) {
  const RadixNode* node = &root;
  std::size_t i = 0;
  while (i < tokens.size()) {
    auto it = node->edges.find(tokens[i]);
    if (it == node->edges.end()) return nullptr;
    const auto& label = it->second.label;
    for (std::size_t k = 0; k < label.size(); ++k) {
      if (i + k >= tokens.size() || !(label[k] == tokens[i + k])) {
        return nullptr;
      }
    }
    i += label.size();
    node = it->second.child.get();
  }
  return node;
}

struct TreeCheck {
  std::size_t nodes = 0;
  std::set<std::uint32_t> ids_in_tree;
  bool structure_ok = true;
};

void CheckTree(const RadixNode& node, bool is_root, TreeCheck* out) {
  ++out->nodes;
  for (std::uint32_t id : node.stored_ids) out->ids_in_tree.insert(id);
  // Invariant: no empty leaf, no non-query unary chain (except the root).
  if (!is_root && !node.is_query()) {
    if (node.edges.empty() || node.edges.size() == 1) {
      out->structure_ok = false;
    }
  }
  for (const auto& [first, edge] : node.edges) {
    // Invariant: the map key is the label's first token, labels non-empty.
    if (edge.label.empty() || !(first == edge.label.front())) {
      out->structure_ok = false;
    }
    CheckTree(*edge.child, false, out);
  }
}

TEST(ChurnInvariantTest, RandomInsertRemoveKeepsAllInvariants) {
  rdf::TermDictionary dict;
  const auto pool = workload::GenerateDbpedia(&dict, 500, 71);
  MvIndex index(&dict);
  util::Rng rng(72);
  std::vector<std::uint32_t> live_ids;

  for (int round = 0; round < 12; ++round) {
    // Mixed batch: ~30 inserts, ~15 removals.
    for (int i = 0; i < 30; ++i) {
      auto outcome =
          index.Insert(pool[rng.Uniform(0, pool.size() - 1)], round);
      ASSERT_TRUE(outcome.ok());
      if (outcome->was_new) live_ids.push_back(outcome->stored_id);
    }
    for (int i = 0; i < 15 && !live_ids.empty(); ++i) {
      const std::size_t pick = rng.Uniform(0, live_ids.size() - 1);
      ASSERT_TRUE(index.Remove(live_ids[pick]).ok());
      live_ids.erase(live_ids.begin() + static_cast<std::ptrdiff_t>(pick));
    }

    // (a)+(c): structural invariants and node accounting.
    TreeCheck check;
    CheckTree(index.root(), true, &check);
    EXPECT_TRUE(check.structure_ok) << "round " << round;
    EXPECT_EQ(check.nodes, index.num_nodes()) << "round " << round;
    const RadixStats stats = index.ComputeStats();
    EXPECT_EQ(stats.num_edges, stats.num_nodes - 1);

    // (b): every live entry's serialised path terminates at a vertex that
    // stores its id; dead entries appear nowhere.
    std::unordered_set<std::uint32_t> live_set(live_ids.begin(),
                                               live_ids.end());
    for (std::uint32_t id = 0; id < index.num_entries(); ++id) {
      const auto& tokens = index.entry(id).tokens;
      if (tokens.empty()) continue;  // skeleton-free side list
      if (index.alive(id)) {
        const RadixNode* node = WalkPath(index.root(), tokens);
        ASSERT_NE(node, nullptr) << "round " << round << " id " << id;
        EXPECT_NE(std::find(node->stored_ids.begin(), node->stored_ids.end(),
                            id),
                  node->stored_ids.end());
      } else {
        EXPECT_EQ(check.ids_in_tree.count(id), 0u);
      }
    }

    // (d): probe equivalence on a few queries.
    for (int p = 0; p < 5; ++p) {
      const auto& probe = pool[rng.Uniform(0, pool.size() - 1)];
      std::set<std::uint32_t> walk_ids, scan_ids;
      for (const auto& m : index.FindContaining(probe).contained) {
        walk_ids.insert(m.stored_id);
      }
      for (const auto& m : index.ScanContaining(probe).contained) {
        scan_ids.insert(m.stored_id);
      }
      EXPECT_EQ(walk_ids, scan_ids) << "round " << round;
    }
  }
}

TEST(ChurnInvariantTest, PersistenceSurvivesCorruptionFuzz) {
  // Randomly corrupt single bytes of a valid snapshot: loading must either
  // fail cleanly or produce an index whose probes do not crash.  (The
  // checksum makes silent acceptance of a corrupted payload practically
  // impossible; the test asserts no crash and no false "ok" with a broken
  // dictionary read.)
  rdf::TermDictionary dict;
  MvIndex index(&dict);
  const auto pool = workload::GenerateDbpedia(&dict, 120, 73);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    ASSERT_TRUE(index.Insert(pool[i], i).ok());
  }
  const std::string path = "churn_corruption.rdfcidx";
  ASSERT_TRUE(SaveFrozenIndex(FrozenMvIndex(index), path).ok());

  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();

  util::Rng rng(74);
  std::size_t clean_failures = 0;
  for (int trial = 0; trial < 40; ++trial) {
    std::string mutated = bytes;
    mutated[rng.Uniform(0, mutated.size() - 1)] ^=
        static_cast<char>(1 + rng.Uniform(0, 254));
    {
      std::ofstream out(path, std::ios::binary);
      out << mutated;
    }
    rdf::TermDictionary dict2;
    auto loaded = LoadFrozenIndex(path, &dict2);
    if (!loaded.ok()) {
      ++clean_failures;
      continue;
    }
    // A flip the checksum cannot see (e.g. in the trailing checksum field
    // making it match by chance is ~2^-64) — if load succeeded, the flip
    // must have been semantically neutral; probing must still work.
    (void)(*loaded)->FindContaining(pool[0]);
  }
  EXPECT_GT(clean_failures, 30u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace index
}  // namespace rdfc
