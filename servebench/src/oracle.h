// Index-free containment oracle.
//
// Follows the containment definition of DESIGN.md (Chandra-Merlin, Boolean
// semantics, as in containment::IsContainedIn): Q ⊑ W iff a mapping σ from
// the variables of W to the terms of Q exists such that every triple pattern
// of W, with σ applied, is a triple pattern of Q.  Constants map to
// themselves; variables may sit in any position.  It shares no code with
// src/containment or src/index: it reads the generators' BgpQuery objects,
// whose terms all come from one dictionary, and finds σ by plain
// backtracking.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "gen.h"

namespace servebench {

class Oracle {
 public:
  struct Query {
    std::vector<std::array<std::uint32_t, 3>> triples;
    std::uint32_t num_vars = 0;
    std::uint64_t constant_mask = 0;  // bloom of constants, for a quick "no"
  };

  static Query Compile(const GenQuery& q, const rdfc::rdf::TermDictionary& dict);

  /// True iff probe ⊑ view.
  static bool Contained(const Query& probe, const Query& view);
};

/// Views the benchmark has published, with the versions that added and
/// removed them.  The benchmark is the only writer, so the live set at any
/// snapshot version is known exactly: a view is live at v iff
/// added <= v < removed.  Compaction versions change no live set.
class LiveLog {
 public:
  static constexpr std::uint64_t kNever = ~0ull;

  /// Sizes the log for ids up to `n`, so that recording allocates nothing.
  void Reserve(std::size_t n) { views_.reserve(n); }
  /// Records a staged add under its service id (ids are dense from 1).
  /// `view` is compiled by the caller and outlives the log; null for views
  /// the log only tracks, never answers with.
  void Staged(std::uint64_t id, const Oracle::Query* view);
  void Published(std::uint64_t id, std::uint64_t version);
  void Removed(std::uint64_t id, std::uint64_t version);

  bool LiveAt(std::uint64_t id, std::uint64_t version) const;
  /// Ids live after the last publish.
  std::vector<std::uint64_t> LiveNow() const;
  /// Every view live at `version` that contains `probe`, ascending.
  std::vector<std::uint64_t> Answer(const Oracle::Query& probe,
                                    std::uint64_t version) const;
  std::uint64_t removed_at(std::uint64_t id) const;

 private:
  struct Entry {
    const Oracle::Query* view = nullptr;
    std::uint64_t added = kNever;
    std::uint64_t removed = kNever;
  };
  std::vector<Entry> views_;  // index = id - 1
};

}  // namespace servebench
