#include "xpath/dom_eval.h"

#include <gtest/gtest.h>

#include "testutil.h"

namespace ruidx {
namespace xpath {
namespace {

class DomEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    doc_ = testing::MustParse(
        "<site>"
        "<people>"
        "<person id=\"p1\"><name>Ann</name><age>30</age></person>"
        "<person id=\"p2\"><name>Bob</name></person>"
        "<person id=\"p3\"><name>Cyd</name><age>44</age></person>"
        "</people>"
        "<items><item id=\"i1\"/><item id=\"i2\"/></items>"
        "<!--inventory--><?audit on?>"
        "</site>");
    eval_ = std::make_unique<DomEvaluator>(doc_.get());
  }

  std::vector<std::string> Names(const std::string& path) {
    auto r = eval_->Evaluate(path);
    EXPECT_TRUE(r.ok()) << path << ": " << r.status().ToString();
    std::vector<std::string> names;
    if (!r.ok()) return names;
    for (const xml::Node* n : *r) {
      names.push_back(n->is_text() ? n->value() : n->name());
    }
    return names;
  }

  std::unique_ptr<xml::Document> doc_;
  std::unique_ptr<DomEvaluator> eval_;
};

TEST_F(DomEvalTest, AbsoluteChildPath) {
  EXPECT_EQ(Names("/site/people/person"),
            (std::vector<std::string>{"person", "person", "person"}));
}

TEST_F(DomEvalTest, DescendantShorthand) {
  EXPECT_EQ(Names("//name").size(), 3u);
  EXPECT_EQ(Names("//item").size(), 2u);
}

TEST_F(DomEvalTest, AttributePredicate) {
  auto r = eval_->Evaluate("/site/people/person[@id=\"p2\"]/name");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0]->TextContent(), "Bob");
}

TEST_F(DomEvalTest, PositionPredicate) {
  auto r = eval_->Evaluate("/site/people/person[2]");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ(*(*r)[0]->GetAttribute("id"), "p2");
}

TEST_F(DomEvalTest, ChildExistsPredicate) {
  auto r = eval_->Evaluate("/site/people/person[age]");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);  // p1 and p3 have an <age>
}

TEST_F(DomEvalTest, TextEqualsPredicate) {
  auto r = eval_->Evaluate("//name[text()='Cyd']/..");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ(*(*r)[0]->GetAttribute("id"), "p3");
}

TEST_F(DomEvalTest, AttributeAxisSelectsAttributes) {
  auto r = eval_->Evaluate("//person/@id");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 3u);
  EXPECT_TRUE((*r)[0]->is_attribute());
  EXPECT_EQ((*r)[0]->value(), "p1");
  EXPECT_EQ((*r)[2]->value(), "p3");
}

TEST_F(DomEvalTest, ParentAndAncestor) {
  auto r = eval_->Evaluate("//age/ancestor::site");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 1u);
  auto r2 = eval_->Evaluate("//age/..");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->size(), 2u);
}

TEST_F(DomEvalTest, SiblingAxes) {
  auto r = eval_->Evaluate(
      "/site/people/person[@id=\"p2\"]/following-sibling::person");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ(*(*r)[0]->GetAttribute("id"), "p3");

  auto r2 = eval_->Evaluate(
      "/site/people/person[@id=\"p2\"]/preceding-sibling::person[1]");
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r2->size(), 1u);
  EXPECT_EQ(*(*r2)[0]->GetAttribute("id"), "p1");
}

TEST_F(DomEvalTest, FollowingAndPreceding) {
  auto r = eval_->Evaluate("//people/following::item");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
  auto r2 = eval_->Evaluate("//item[@id=\"i1\"]/preceding::person");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->size(), 3u);
  // Nearest-first for the reverse axis with a positional predicate.
  auto r3 = eval_->Evaluate("//item[@id=\"i1\"]/preceding::person[1]");
  ASSERT_TRUE(r3.ok());
  ASSERT_EQ(r3->size(), 1u);
  EXPECT_EQ(*(*r3)[0]->GetAttribute("id"), "p3");
}

TEST_F(DomEvalTest, CommentAndPiTests) {
  EXPECT_EQ(Names("/site/comment()").size(), 1u);
  EXPECT_EQ(Names("/site/processing-instruction()").size(), 1u);
  EXPECT_EQ(Names("//name/text()"),
            (std::vector<std::string>{"Ann", "Bob", "Cyd"}));
}

TEST_F(DomEvalTest, ResultsInDocumentOrderDeduped) {
  // Two routes to the same nodes must not duplicate them.
  auto r = eval_->Evaluate("//person/ancestor-or-self::*/name");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 3u);
  auto order = testing::DocOrderIndex(doc_->root());
  for (size_t i = 1; i < r->size(); ++i) {
    EXPECT_LT(order.at((*r)[i - 1]->serial()), order.at((*r)[i]->serial()));
  }
}

TEST_F(DomEvalTest, EmptyResultIsOk) {
  auto r = eval_->Evaluate("/site/nonexistent/child");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST_F(DomEvalTest, RelativeFromContextNode) {
  auto people = eval_->Evaluate("/site/people");
  ASSERT_TRUE(people.ok());
  ASSERT_EQ(people->size(), 1u);
  auto r = eval_->Evaluate("person/name", (*people)[0]);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 3u);
}

TEST_F(DomEvalTest, AbsolutePathStartsAtDocumentNode) {
  // A context node only anchors relative paths.
  auto persons = eval_->Evaluate("/site/people/person");
  ASSERT_TRUE(persons.ok());
  ASSERT_EQ(persons->size(), 3u);
  xml::Node* person = (*persons)[0];
  auto site = eval_->Evaluate("/site", person);
  ASSERT_TRUE(site.ok());
  EXPECT_EQ(*site, std::vector<xml::Node*>{doc_->root()});
  auto all = eval_->Evaluate("//person", person);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, *persons);
  auto top = eval_->Evaluate("/*", person);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(*top, std::vector<xml::Node*>{doc_->root()});
}

TEST_F(DomEvalTest, VisitCounterAdvances) {
  eval_->ResetCounters();
  ASSERT_TRUE(eval_->Evaluate("//person").ok());
  EXPECT_GT(eval_->nodes_visited(), 0u);
}

}  // namespace
}  // namespace xpath
}  // namespace ruidx
