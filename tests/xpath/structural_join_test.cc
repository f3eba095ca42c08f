#include "xpath/structural_join.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "testutil.h"
#include "xml/generator.h"
#include "xpath/dom_eval.h"
#include "xpath/name_index.h"

namespace ruidx {
namespace xpath {
namespace {

core::PartitionOptions SmallAreas() {
  core::PartitionOptions options;
  options.max_area_nodes = 16;
  options.max_area_depth = 3;
  return options;
}

JoinResult Normalize(JoinResult pairs) {
  std::sort(pairs.begin(), pairs.end(),
            [](const auto& x, const auto& y) {
              if (x.first->serial() != y.first->serial()) {
                return x.first->serial() < y.first->serial();
              }
              return x.second->serial() < y.second->serial();
            });
  return pairs;
}

TEST(StructuralJoinTest, SmallHandmadeCase) {
  auto doc = ruidx::testing::MustParse(
      "<a><b><c/><b><c/></b></b><c/><d><c/></d></a>");
  core::Ruid2Scheme scheme(SmallAreas());
  scheme.Build(doc->root());
  NameIndex index(doc->root());
  std::vector<xml::Node*> bs = index.Lookup("b");
  std::vector<xml::Node*> cs = index.Lookup("c");

  JoinResult expected = Normalize(StructuralJoinNestedLoop(bs, cs));
  // b's contain: outer b -> c1, inner c2; inner b -> c2. Total 3 pairs.
  ASSERT_EQ(expected.size(), 3u);
  EXPECT_EQ(Normalize(StructuralJoinRuid(scheme, bs, cs)), expected);

  scheme::XissScheme xiss;
  xiss.Build(doc->root());
  EXPECT_EQ(Normalize(StructuralJoinInterval(xiss, bs, cs)), expected);
}

TEST(StructuralJoinTest, EmptySidesYieldEmpty) {
  auto doc = ruidx::testing::MustParse("<a><b/></a>");
  core::Ruid2Scheme scheme;
  scheme.Build(doc->root());
  EXPECT_TRUE(StructuralJoinRuid(scheme, {}, {doc->root()}).empty());
  EXPECT_TRUE(StructuralJoinRuid(scheme, {doc->root()}, {}).empty());
}

TEST(StructuralJoinTest, SelfPairsAreExcluded) {
  auto doc = ruidx::testing::MustParse("<a><a><a/></a></a>");
  core::Ruid2Scheme scheme;
  scheme.Build(doc->root());
  NameIndex index(doc->root());
  auto as = index.Lookup("a");
  JoinResult pairs = StructuralJoinRuid(scheme, as, as);
  // 3 nested a's: (a1,a2), (a1,a3), (a2,a3) — never (x,x).
  EXPECT_EQ(pairs.size(), 3u);
  for (const auto& [a, d] : pairs) EXPECT_NE(a, d);
}

class JoinEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, const char*, const char*>> {};

TEST_P(JoinEquivalenceTest, AllImplementationsAgree) {
  auto [topology, a_name, d_name] = GetParam();
  std::unique_ptr<xml::Document> doc;
  switch (topology) {
    case 0: {
      xml::XmarkConfig config;
      config.items = 30;
      config.people = 20;
      config.open_auctions = 15;
      doc = xml::GenerateXmarkLike(config);
      break;
    }
    case 1:
      doc = xml::GenerateDblpLike(40);
      break;
    default: {
      xml::RandomTreeConfig config;
      config.node_budget = 300;
      config.max_fanout = 5;
      config.tag_alphabet = 4;  // few names -> dense joins
      config.seed = 11;
      doc = xml::GenerateRandomTree(config);
    }
  }
  core::Ruid2Scheme ruid(SmallAreas());
  ruid.Build(doc->root());
  scheme::XissScheme xiss;
  xiss.Build(doc->root());
  NameIndex index(doc->root());
  std::vector<xml::Node*> ancestors = index.Lookup(a_name);
  std::vector<xml::Node*> descendants = index.Lookup(d_name);

  // Lookup returns document order, so the nested loop over it emits the
  // ruid join's contract exactly: descendants in document order, outer
  // ancestors first. The ruid join must match it unsorted.
  JoinResult in_order = StructuralJoinNestedLoop(ancestors, descendants);
  EXPECT_EQ(StructuralJoinRuid(ruid, ancestors, descendants), in_order);
  JoinResult expected = Normalize(in_order);
  EXPECT_EQ(Normalize(StructuralJoinInterval(xiss, ancestors, descendants)),
            expected);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, JoinEquivalenceTest,
    ::testing::Values(std::make_tuple(0, "open_auction", "increase"),
                      std::make_tuple(0, "person", "name"),
                      std::make_tuple(0, "site", "item"),
                      std::make_tuple(0, "category", "category"),
                      std::make_tuple(1, "article", "author"),
                      std::make_tuple(1, "dblp", "year"),
                      std::make_tuple(2, "t0", "t1"),
                      std::make_tuple(2, "t1", "t1"),
                      std::make_tuple(2, "t2", "t3")),
    [](const ::testing::TestParamInfo<std::tuple<int, const char*, const char*>>&
           info) {
      return "t" + std::to_string(std::get<0>(info.param)) + "_" +
             std::string(std::get<1>(info.param)) + "_" +
             std::string(std::get<2>(info.param));
    });

TEST(StructuralJoinTest, OutputGroupedByDescendantOuterFirst) {
  auto doc = ruidx::testing::MustParse("<x><x><x><y/></x></x></x>");
  core::Ruid2Scheme scheme;
  scheme.Build(doc->root());
  NameIndex index(doc->root());
  JoinResult pairs =
      StructuralJoinRuid(scheme, index.Lookup("x"), index.Lookup("y"));
  ASSERT_EQ(pairs.size(), 3u);
  // Same descendant; ancestors from outermost to innermost.
  EXPECT_TRUE(pairs[1].first->HasAncestor(pairs[0].first));
  EXPECT_TRUE(pairs[2].first->HasAncestor(pairs[1].first));
}

}  // namespace
}  // namespace xpath
}  // namespace ruidx
