#include "index/persistence.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>

#include "../test_util.h"
#include "workload/workload.h"

namespace rdfc {
namespace index {
namespace {

using rdfc::testing::ParseOrDie;

class PersistenceTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_ = ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name() +
                      std::string(".rdfcidx");
};

TEST_F(PersistenceTest, RoundTripSmallIndex) {
  rdf::TermDictionary dict;
  MvIndex index(&dict);
  const char* views[] = {
      "ASK { ?x :p ?y . }",
      "ASK { ?x :p ?y . ?y :q :c . }",
      "ASK { ?x ?v ?y . }",
      "ASK { ?a :p ?b . ?c :q ?d . }",
      R"(ASK { ?x :name "lit"@en . })",
  };
  for (std::size_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(index.Insert(ParseOrDie(views[i], &dict), i * 10).ok());
  }
  const FrozenMvIndex frozen(index);
  ASSERT_TRUE(SaveFrozenIndex(frozen, path_).ok());

  rdf::TermDictionary dict2;
  auto loaded = LoadFrozenIndex(path_, &dict2);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->num_entries(), index.num_entries());
  EXPECT_EQ((*loaded)->nodes().size(), frozen.nodes().size());

  // Probes agree (by count and by external id sets).
  const query::BgpQuery probe1 =
      ParseOrDie("ASK { ?s :p ?t . ?t :q :c . ?s :r ?u . }", &dict);
  const query::BgpQuery probe2 =
      ParseOrDie("ASK { ?s :p ?t . ?t :q :c . ?s :r ?u . }", &dict2);
  const auto before = index.FindContaining(probe1);
  const auto after = (*loaded)->FindContaining(probe2);
  ASSERT_EQ(before.contained.size(), after.contained.size());
  std::multiset<std::uint64_t> ext_before, ext_after;
  for (const auto& m : before.contained) {
    for (auto e : index.external_ids(m.stored_id)) ext_before.insert(e);
  }
  for (const auto& m : after.contained) {
    for (auto e : (*loaded)->external_ids(m.stored_id)) ext_after.insert(e);
  }
  EXPECT_EQ(ext_before, ext_after);
}

TEST_F(PersistenceTest, RemovedEntriesAreNotPersisted) {
  rdf::TermDictionary dict;
  MvIndex index(&dict);
  auto a = index.Insert(ParseOrDie("ASK { ?x :p ?y . }", &dict), 1);
  auto b = index.Insert(ParseOrDie("ASK { ?x :q ?y . }", &dict), 2);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(index.Remove(a->stored_id).ok());
  ASSERT_TRUE(SaveFrozenIndex(FrozenMvIndex(index), path_).ok());

  // The removed entry keeps its slot (stored ids stay stable) but never
  // comes back live.
  rdf::TermDictionary dict2;
  auto loaded = LoadFrozenIndex(path_, &dict2);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->num_live_entries(), 1u);
  EXPECT_FALSE((*loaded)->alive(a->stored_id));
  EXPECT_TRUE((*loaded)
                  ->FindContaining(ParseOrDie("ASK { ?s :p ?t . }", &dict2))
                  .contained.empty());
  EXPECT_EQ((*loaded)
                ->FindContaining(ParseOrDie("ASK { ?s :q ?t . }", &dict2))
                .contained.size(),
            1u);
}

TEST_F(PersistenceTest, RoundTripWorkloadSlice) {
  rdf::TermDictionary dict;
  MvIndex index(&dict);
  const auto queries = workload::GenerateDbpedia(&dict, 2000, 5);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(index.Insert(queries[i], i).ok());
  }
  const FrozenMvIndex frozen(index);
  ASSERT_TRUE(SaveFrozenIndex(frozen, path_).ok());

  rdf::TermDictionary dict2;
  auto loaded = LoadFrozenIndex(path_, &dict2);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->num_live_entries(), index.num_live_entries());
  // The structure blob loads as written: identical tree shape.
  EXPECT_EQ((*loaded)->nodes().size(), frozen.nodes().size());
  EXPECT_EQ((*loaded)->edge_first_tokens().size(),
            frozen.edge_first_tokens().size());
  EXPECT_EQ((*loaded)->label_pool().size(), frozen.label_pool().size());

  // Same probe verdicts on a workload sample (regenerate against dict2).
  const auto probes = workload::GenerateDbpedia(&dict2, 50, 6);
  const auto probes1 = workload::GenerateDbpedia(&dict, 50, 6);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(index.FindContaining(probes1[i]).contained.size(),
              (*loaded)->FindContaining(probes[i]).contained.size())
        << i;
  }
}

TEST_F(PersistenceTest, LoadRejectsCorruption) {
  rdf::TermDictionary dict;
  MvIndex index(&dict);
  ASSERT_TRUE(index.Insert(ParseOrDie("ASK { ?x :p ?y . }", &dict), 0).ok());
  ASSERT_TRUE(SaveFrozenIndex(FrozenMvIndex(index), path_).ok());

  // Flip one payload byte.
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(24);
    char c = 0;
    f.read(&c, 1);
    ASSERT_TRUE(f.good());
    f.seekp(24);
    c = static_cast<char>(c ^ 0x5A);
    f.write(&c, 1);
  }
  rdf::TermDictionary dict2;
  auto loaded = LoadFrozenIndex(path_, &dict2);
  EXPECT_FALSE(loaded.ok());
}

TEST_F(PersistenceTest, LoadRejectsBadMagicAndMissingFile) {
  {
    std::ofstream f(path_, std::ios::binary);
    f << "definitely not an index";
  }
  rdf::TermDictionary dict;
  EXPECT_FALSE(LoadFrozenIndex(path_, &dict).ok());
  EXPECT_FALSE(LoadFrozenIndex("/nonexistent/dir/idx", &dict).ok());
}

}  // namespace
}  // namespace index
}  // namespace rdfc
