// E10 correctness side: the identifier-based evaluator must return exactly
// the node set of the navigational evaluator for every query shape, on
// every topology. Parameterized sweep: paths x documents; then the same
// oracle under an update storm and under two concurrent evaluators.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/ruid2.h"
#include "testutil.h"
#include "util/random.h"
#include "xml/generator.h"
#include "xpath/dom_eval.h"
#include "xpath/name_index.h"
#include "xpath/path_index.h"
#include "xpath/ruid_eval.h"

namespace ruidx {
namespace xpath {
namespace {

struct Param {
  std::string doc_name;
  std::string path;
};

std::unique_ptr<xml::Document> MakeDoc(const std::string& name) {
  if (name == "xmark") {
    xml::XmarkConfig config;
    config.items = 24;
    config.people = 15;
    config.open_auctions = 10;
    config.closed_auctions = 6;
    config.categories = 5;
    return xml::GenerateXmarkLike(config);
  }
  if (name == "dblp") return xml::GenerateDblpLike(25);
  xml::RandomTreeConfig config;
  config.node_budget = 180;
  config.max_fanout = 5;
  config.seed = 4242;
  config.text_probability = 0.3;
  return xml::GenerateRandomTree(config);
}

class XPathEquivalenceTest : public ::testing::TestWithParam<Param> {};

TEST_P(XPathEquivalenceTest, RuidMatchesDom) {
  const Param& param = GetParam();
  auto doc = MakeDoc(param.doc_name);

  core::PartitionOptions options;
  options.max_area_nodes = 16;
  options.max_area_depth = 3;
  core::Ruid2Scheme scheme(options);
  scheme.Build(doc->root());

  DomEvaluator dom_eval(doc.get());
  RuidEvaluator ruid_eval(doc.get(), &scheme);
  NameIndex name_index(doc->root());
  RuidEvaluator indexed_eval(doc.get(), &scheme);
  indexed_eval.SetNameIndex(&name_index);

  auto expected = dom_eval.Evaluate(param.path);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  auto actual = ruid_eval.Evaluate(param.path);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  auto indexed = indexed_eval.Evaluate(param.path);
  ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();

  ASSERT_EQ(actual->size(), expected->size())
      << param.path << " on " << param.doc_name;
  for (size_t i = 0; i < expected->size(); ++i) {
    EXPECT_EQ((*actual)[i], (*expected)[i])
        << param.path << " result " << i << " differs";
  }
  ASSERT_EQ(*indexed, *expected)
      << param.path << " via name index on " << param.doc_name;
}

std::vector<Param> MakeCases() {
  const std::string kPaths[] = {
      "/*",
      "//*",
      "//node()",
      "/site/people/person",
      "//person/name",
      "//person[@id]/@id",
      "//person[2]",
      "//item/ancestor::*",
      "//name/..",
      "//person/descendant::text()",
      "//bidder/preceding-sibling::node()",
      "//bidder/following-sibling::*",
      "//increase/preceding::initial",
      "//initial/following::increase",
      "//person/ancestor-or-self::node()",
      "//category//category",
      "//*[name]/name/text()",
      "descendant::*[@id][1]",
      "//watch/parent::watches/..",
      "//text()",
      "/site/*/person",
      "/site/regions/*/item/name",
      "//name | //item",
      "//bidder | //initial | //increase",
      "/site/people/person/name/text()",
      // Positional child steps under //, answered from postings grouped by
      // rparent: the root has no rparent, and predicate order matters
      // inside a group.
      "//bidder[1]/increase",
      "//bidder[2]",
      "//open_auction/bidder",
      "//category//category//category",
      "//name[1]",
      "//site[1]",
      "//person[@id][2]",
      "//person[2][@id]",
  };
  std::vector<Param> cases;
  for (const std::string doc : {"xmark", "dblp", "random"}) {
    for (const std::string& path : kPaths) {
      cases.push_back({doc, path});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(PathsTimesDocs, XPathEquivalenceTest,
                         ::testing::ValuesIn(MakeCases()),
                         [](const ::testing::TestParamInfo<Param>& info) {
                           std::string name =
                               info.param.doc_name + "_" +
                               std::to_string(info.index);
                           return name;
                         });

/// The E10 query set (bench/bench_query.cc).
const char* const kE10Queries[] = {
    "/site/people/person",
    "//person/name",
    "//person[@id=\"person11\"]",
    "//open_auction/bidder",
    "//bidder[1]/increase",
    "//item/ancestor::*",
    "//person[watches]/name/text()",
    "//category//category",
    "//initial/following::increase",
    "/site/open_auctions/open_auction/bidder/increase",
    "/site/*/person/name",
};

/// True while `n` hangs under the document node.
bool Attached(const xml::Node* n) {
  while (n->parent() != nullptr) n = n->parent();
  return n->is_document();
}

TEST(XPathUpdateStormTest, AnswersMatchDomAfterEveryUpdate) {
  // Every update moves preorder ranks, so this checks the refresh contract
  // of the order key: Refresh after each update, and every route (plain,
  // name index, path index) answers like DOM navigation again.
  std::vector<const char*> queries(std::begin(kE10Queries),
                                   std::end(kE10Queries));
  queries.push_back("//u/w[1]");
  queries.push_back("//u//w");
  const uint64_t kSeeds[] = {1, 2, 3};
  for (size_t s = 0; s < std::size(kSeeds); ++s) {
    auto doc = MakeDoc("xmark");
    core::PartitionOptions options;
    options.max_area_nodes = 8 + 8 * s;  // 8-, 16- and 24-node areas
    options.max_area_depth = 3;
    core::Ruid2Scheme scheme(options);
    scheme.Build(doc->root());
    NameIndex name_index(doc->root());
    PathIndex path_index(doc->root());
    DomEvaluator dom_eval(doc.get());
    RuidEvaluator plain_eval(doc.get(), &scheme);
    RuidEvaluator indexed_eval(doc.get(), &scheme);
    indexed_eval.SetNameIndex(&name_index);
    indexed_eval.SetPathIndex(&path_index);
    Rng rng(kSeeds[s]);
    std::vector<xml::Node*> inserted;
    for (int step = 0; step < 60; ++step) {
      std::vector<xml::Node*> live;
      for (xml::Node* u : inserted) {
        if (Attached(u)) live.push_back(u);
      }
      Result<core::UpdateReport> report = core::UpdateReport{};
      if (live.empty() || rng.NextBool(0.6)) {
        std::vector<xml::Node*> elements;
        for (xml::Node* n : ruidx::testing::AllNodes(doc->root())) {
          if (n->is_element()) elements.push_back(n);
        }
        xml::Node* parent = elements[rng.NextBounded(elements.size())];
        xml::Node* u = doc->CreateElement("u");
        xml::Node* w = doc->CreateElement("w");
        ASSERT_TRUE(doc->AppendChild(w, doc->CreateText("x")).ok());
        ASSERT_TRUE(doc->AppendChild(u, w).ok());
        report = scheme.InsertAndRelabel(
            doc.get(), parent, rng.NextBounded(parent->fanout() + 1), u);
        inserted.push_back(u);
      } else {
        report = scheme.RemoveAndRelabel(
            doc.get(), live[rng.NextBounded(live.size())]);
      }
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      name_index.OnUpdate(*report);
      path_index.OnUpdate(*report);
      plain_eval.Refresh();
      indexed_eval.Refresh();
      for (const char* query : queries) {
        auto expected = dom_eval.Evaluate(query);
        auto plain = plain_eval.Evaluate(query);
        auto indexed = indexed_eval.Evaluate(query);
        ASSERT_TRUE(expected.ok() && plain.ok() && indexed.ok()) << query;
        ASSERT_EQ(*plain, *expected)
            << query << " (plain), seed " << kSeeds[s] << " step " << step;
        ASSERT_EQ(*indexed, *expected)
            << query << " (indexed), seed " << kSeeds[s] << " step " << step;
      }
    }
  }
}

TEST(ConcurrentEvaluatorsTest, SharedIndexesAnswerLikeDom) {
  // Two evaluators on one scheme share one NameIndex and one PathIndex, as
  // the e2e query clients do; run under TSan, this guards any state built
  // lazily or shared through the scheme.
  auto doc = MakeDoc("xmark");
  core::PartitionOptions options;
  options.max_area_nodes = 16;
  options.max_area_depth = 3;
  core::Ruid2Scheme scheme(options);
  scheme.Build(doc->root());
  NameIndex name_index(doc->root());
  PathIndex path_index(doc->root());
  DomEvaluator dom_eval(doc.get());
  std::vector<std::vector<xml::Node*>> expected;
  for (const char* query : kE10Queries) {
    auto answer = dom_eval.Evaluate(query);
    ASSERT_TRUE(answer.ok()) << query;
    expected.push_back(*answer);
  }
  std::atomic<int> mismatches{0};
  auto client = [&] {
    RuidEvaluator eval(doc.get(), &scheme);
    eval.SetNameIndex(&name_index);
    eval.SetPathIndex(&path_index);
    for (int round = 0; round < 20; ++round) {
      for (size_t q = 0; q < std::size(kE10Queries); ++q) {
        auto got = eval.Evaluate(kE10Queries[q]);
        if (!got.ok() || *got != expected[q]) ++mismatches;
      }
    }
  };
  std::thread first(client);
  std::thread second(client);
  first.join();
  second.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(RuidEvalAbsolutePathTest, AbsolutePathsStartAtDocumentNode) {
  xml::XmarkConfig config;
  config.people = 5;
  auto doc = xml::GenerateXmarkLike(config);
  core::Ruid2Scheme scheme;
  scheme.Build(doc->root());
  NameIndex name_index(doc->root());
  PathIndex path_index(doc->root());
  RuidEvaluator plain_eval(doc.get(), &scheme);
  RuidEvaluator indexed_eval(doc.get(), &scheme);
  indexed_eval.SetNameIndex(&name_index);
  indexed_eval.SetPathIndex(&path_index);
  xml::Node* person = name_index.Lookup("person")[0];
  for (RuidEvaluator* eval : {&plain_eval, &indexed_eval}) {
    auto site = eval->Evaluate("/site", person);
    ASSERT_TRUE(site.ok());
    EXPECT_EQ(*site, std::vector<xml::Node*>{doc->root()});
    auto persons = eval->Evaluate("//person", person);
    ASSERT_TRUE(persons.ok());
    EXPECT_EQ(*persons, name_index.Lookup("person"));
    EXPECT_EQ(persons->size(), 5u);
    auto top = eval->Evaluate("/*", person);
    ASSERT_TRUE(top.ok());
    EXPECT_EQ(*top, std::vector<xml::Node*>{doc->root()});
  }
}

}  // namespace
}  // namespace xpath
}  // namespace ruidx
