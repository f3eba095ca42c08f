#include "xpath/name_index.h"

#include <gtest/gtest.h>

#include "core/ruid2.h"
#include "testutil.h"
#include "xml/generator.h"
#include "xpath/dom_eval.h"
#include "xpath/ruid_eval.h"

namespace ruidx {
namespace xpath {
namespace {

TEST(NameIndexTest, LookupByTagInDocumentOrder) {
  auto doc = ruidx::testing::MustParse(
      "<a><b/><c><b/><d/></c><b>t</b></a>");
  NameIndex index(doc->root());
  const auto& bs = index.Lookup("b");
  ASSERT_EQ(bs.size(), 3u);
  auto order = ruidx::testing::DocOrderIndex(doc->root());
  EXPECT_LT(order.at(bs[0]->serial()), order.at(bs[1]->serial()));
  EXPECT_LT(order.at(bs[1]->serial()), order.at(bs[2]->serial()));
  EXPECT_EQ(index.Lookup("zzz").size(), 0u);
  EXPECT_EQ(index.Lookup("a").size(), 1u);
  EXPECT_EQ(index.TextNodes().size(), 1u);
  EXPECT_EQ(index.distinct_names(), 4u);
}

TEST(NameIndexTest, RebuildAfterMutation) {
  auto doc = ruidx::testing::MustParse("<a><b/></a>");
  NameIndex index(doc->root());
  EXPECT_EQ(index.Lookup("b").size(), 1u);
  ASSERT_TRUE(doc->AppendChild(doc->root(), doc->CreateElement("b")).ok());
  index.Build(doc->root());
  EXPECT_EQ(index.Lookup("b").size(), 2u);
}

class IndexedEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    xml::XmarkConfig config;
    config.items = 30;
    config.people = 20;
    config.open_auctions = 15;
    doc_ = xml::GenerateXmarkLike(config);
    core::PartitionOptions options;
    options.max_area_nodes = 16;
    options.max_area_depth = 3;
    scheme_ = std::make_unique<core::Ruid2Scheme>(options);
    scheme_->Build(doc_->root());
    index_ = std::make_unique<NameIndex>(doc_->root());
    dom_eval_ = std::make_unique<DomEvaluator>(doc_.get());
    plain_eval_ = std::make_unique<RuidEvaluator>(doc_.get(), scheme_.get());
    indexed_eval_ = std::make_unique<RuidEvaluator>(doc_.get(), scheme_.get());
    indexed_eval_->SetNameIndex(index_.get());
  }

  std::unique_ptr<xml::Document> doc_;
  std::unique_ptr<core::Ruid2Scheme> scheme_;
  std::unique_ptr<NameIndex> index_;
  std::unique_ptr<DomEvaluator> dom_eval_;
  std::unique_ptr<RuidEvaluator> plain_eval_;
  std::unique_ptr<RuidEvaluator> indexed_eval_;
};

TEST_F(IndexedEvalTest, IndexedStepsMatchBothBaselines) {
  const char* kQueries[] = {
      "//item",
      "//person/name",
      "//initial/following::increase",
      "//increase/preceding::initial",
      "//bidder/ancestor::open_auction",
      "//name/ancestor-or-self::name",
      "/site//watch",
      "//person[watches]",
  };
  for (const char* query : kQueries) {
    auto via_dom = dom_eval_->Evaluate(query);
    auto via_plain = plain_eval_->Evaluate(query);
    auto via_index = indexed_eval_->Evaluate(query);
    ASSERT_TRUE(via_dom.ok() && via_plain.ok() && via_index.ok()) << query;
    EXPECT_EQ(*via_index, *via_dom) << query;
    EXPECT_EQ(*via_index, *via_plain) << query;
  }
}

TEST_F(IndexedEvalTest, PositionalPredicatesFallBackCorrectly) {
  // [2] counts per parent: the index answers //bidder[2] from the bidder
  // postings grouped by rparent, one position count per group.
  auto via_dom = dom_eval_->Evaluate("//bidder[2]");
  auto via_index = indexed_eval_->Evaluate("//bidder[2]");
  ASSERT_TRUE(via_dom.ok() && via_index.ok());
  EXPECT_EQ(*via_index, *via_dom);
}

TEST_F(IndexedEvalTest, PositionalChildStepReadsOnlyPostings) {
  // //bidder[1] reads the bidder postings once instead of expanding
  // descendant-or-self of the whole document; /increase then navigates
  // from the answers.
  indexed_eval_->ResetCounters();
  auto via_index = indexed_eval_->Evaluate("//bidder[1]/increase");
  auto via_dom = dom_eval_->Evaluate("//bidder[1]/increase");
  ASSERT_TRUE(via_index.ok() && via_dom.ok());
  EXPECT_EQ(*via_index, *via_dom);
  EXPECT_LE(indexed_eval_->ids_generated(),
            index_->Lookup("bidder").size() +
                index_->Lookup("increase").size());
}

TEST_F(IndexedEvalTest, IndexTouchesOnlyCandidates) {
  indexed_eval_->ResetCounters();
  plain_eval_->ResetCounters();
  ASSERT_TRUE(indexed_eval_->Evaluate("//initial/following::increase").ok());
  ASSERT_TRUE(plain_eval_->Evaluate("//initial/following::increase").ok());
  // The candidate pass materializes far fewer identifiers than generating
  // whole following axes.
  EXPECT_LT(indexed_eval_->ids_generated(), plain_eval_->ids_generated() / 2);
}

}  // namespace
}  // namespace xpath
}  // namespace ruidx
