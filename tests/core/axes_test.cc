// Sec. 3.5: the axis construction routines must agree with DOM ground truth.
#include "core/axes.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "testutil.h"
#include "util/random.h"
#include "xml/generator.h"

namespace ruidx {
namespace core {
namespace {

PartitionOptions SmallAreas() {
  PartitionOptions options;
  options.max_area_nodes = 12;
  options.max_area_depth = 3;
  return options;
}

class AxesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    xml::RandomTreeConfig config;
    config.node_budget = 220;
    config.max_fanout = 5;
    config.seed = 55;
    doc_ = xml::GenerateRandomTree(config);
    scheme_ = std::make_unique<Ruid2Scheme>(SmallAreas());
    scheme_->Build(doc_->root());
    axes_ = std::make_unique<RuidAxes>(scheme_.get());
  }

  std::unique_ptr<xml::Document> doc_;
  std::unique_ptr<Ruid2Scheme> scheme_;
  std::unique_ptr<RuidAxes> axes_;
};

TEST_F(AxesTest, ChildrenMatchDomInOrder) {
  for (xml::Node* n : testing::AllNodes(doc_->root())) {
    std::vector<xml::Node*> got = axes_->Children(scheme_->label(n));
    ASSERT_EQ(got.size(), n->children().size())
        << scheme_->label(n).ToString();
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], n->children()[i]);
    }
  }
}

TEST_F(AxesTest, ChildSlotsContainRealChildrenWithRightShape) {
  for (xml::Node* n : testing::AllNodes(doc_->root())) {
    std::vector<Ruid2Id> slots = axes_->ChildSlots(scheme_->label(n));
    // Every real child's identifier appears among the slots.
    for (xml::Node* c : n->children()) {
      const Ruid2Id& id = scheme_->label(c);
      bool found = false;
      for (const Ruid2Id& slot : slots) {
        if (slot == id) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << id.ToString();
    }
    // Slot count equals the area's local fan-out (virtual slots included).
    if (!slots.empty()) {
      const KRow* row = scheme_->ktable().Find(scheme_->label(n).global);
      ASSERT_NE(row, nullptr);
      EXPECT_EQ(slots.size(), row->fanout);
    }
  }
}

TEST_F(AxesTest, AncestorsMatchDom) {
  for (xml::Node* n : testing::AllNodes(doc_->root())) {
    std::vector<xml::Node*> got = axes_->Ancestors(scheme_->label(n));
    std::vector<xml::Node*> expected = testing::DomAncestors(n);
    EXPECT_EQ(got, expected);
  }
}

TEST_F(AxesTest, DescendantsMatchDom) {
  auto nodes = testing::AllNodes(doc_->root());
  for (size_t i = 0; i < nodes.size(); i += 3) {
    auto got = testing::SortedBySerial(axes_->Descendants(scheme_->label(nodes[i])));
    auto expected = testing::SortedBySerial(testing::DomDescendants(nodes[i]));
    EXPECT_EQ(got, expected) << scheme_->label(nodes[i]).ToString();
  }
}

TEST_F(AxesTest, SiblingAxesMatchDom) {
  for (xml::Node* n : testing::AllNodes(doc_->root())) {
    std::vector<xml::Node*> prev = axes_->PrecedingSiblings(scheme_->label(n));
    std::vector<xml::Node*> next = axes_->FollowingSiblings(scheme_->label(n));
    if (n->parent() == nullptr || n->parent()->is_document()) {
      EXPECT_TRUE(prev.empty());
      EXPECT_TRUE(next.empty());
      continue;
    }
    const auto& sibs = n->parent()->children();
    int idx = n->IndexInParent();
    ASSERT_GE(idx, 0);
    // Nearest-first for preceding.
    ASSERT_EQ(prev.size(), static_cast<size_t>(idx));
    for (int i = 0; i < idx; ++i) {
      EXPECT_EQ(prev[static_cast<size_t>(i)], sibs[static_cast<size_t>(idx - 1 - i)]);
    }
    ASSERT_EQ(next.size(), sibs.size() - static_cast<size_t>(idx) - 1);
    for (size_t i = 0; i < next.size(); ++i) {
      EXPECT_EQ(next[i], sibs[static_cast<size_t>(idx) + 1 + i]);
    }
  }
}

TEST_F(AxesTest, PrecedingMatchesDom) {
  auto nodes = testing::AllNodes(doc_->root());
  for (size_t i = 0; i < nodes.size(); i += 5) {
    auto got = testing::SortedBySerial(axes_->Preceding(scheme_->label(nodes[i])));
    auto expected =
        testing::SortedBySerial(testing::DomPreceding(doc_->root(), nodes[i]));
    EXPECT_EQ(got, expected) << scheme_->label(nodes[i]).ToString();
  }
}

TEST_F(AxesTest, FollowingMatchesDom) {
  auto nodes = testing::AllNodes(doc_->root());
  for (size_t i = 0; i < nodes.size(); i += 5) {
    auto got = testing::SortedBySerial(axes_->Following(scheme_->label(nodes[i])));
    auto expected =
        testing::SortedBySerial(testing::DomFollowing(doc_->root(), nodes[i]));
    EXPECT_EQ(got, expected) << scheme_->label(nodes[i]).ToString();
  }
}

TEST_F(AxesTest, AxesPartitionTheDocument) {
  // For any node: {self} ∪ ancestors ∪ descendants ∪ preceding ∪ following
  // = all nodes, with the four sets disjoint (XPath data model property).
  auto nodes = testing::AllNodes(doc_->root());
  for (size_t i = 0; i < nodes.size(); i += 13) {
    const Ruid2Id& id = scheme_->label(nodes[i]);
    size_t total = 1 + axes_->Ancestors(id).size() +
                   axes_->Descendants(id).size() + axes_->Preceding(id).size() +
                   axes_->Following(id).size();
    EXPECT_EQ(total, nodes.size());
  }
}

TEST_F(AxesTest, RefreshAfterUpdate) {
  xml::Node* parent = doc_->root();
  auto report = scheme_->InsertAndRelabel(doc_.get(), parent, 0,
                                          doc_->CreateElement("fresh"));
  ASSERT_TRUE(report.ok());
  axes_->Refresh();
  std::vector<xml::Node*> kids = axes_->Children(scheme_->label(parent));
  ASSERT_FALSE(kids.empty());
  EXPECT_EQ(kids[0]->name(), "fresh");
}

// --- Order key and rdescendant, across topologies ---------------------------

/// Every node roots its own area, so on the depth-75 deep tree the frame
/// is the tree itself and frame globals pass 2^64 (the band of
/// PackedCoverageTest).
PartitionOptions TinyAreas() {
  PartitionOptions options;
  options.max_area_nodes = 2;
  options.max_area_depth = 1;
  return options;
}

std::unique_ptr<xml::Document> MakePropertyDoc(const std::string& name) {
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
  if (name == "deep") {
    xml::DeepTreeConfig config;
    config.depth = 75;
    config.siblings_per_level = 2;
    return xml::GenerateDeepTree(config);
  }
  xml::RandomTreeConfig config;
  config.node_budget = 300;
  config.max_fanout = 6;
  config.seed = 91;
  config.text_probability = 0.2;
  return xml::GenerateRandomTree(config);
}

class AxesPropertyTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    doc_ = MakePropertyDoc(GetParam());
    scheme_ = std::make_unique<Ruid2Scheme>(
        GetParam() == "deep" ? TinyAreas() : SmallAreas());
    scheme_->Build(doc_->root());
    axes_ = std::make_unique<RuidAxes>(scheme_.get());
    if (GetParam() == "deep") {
      uint64_t past_64_bits = 0;
      scheme_->ForEachLabeled([&](const xml::Node*, const Ruid2Id& id) {
        if (!id.global.FitsUint64()) ++past_64_bits;
      });
      ASSERT_GT(past_64_bits, 0u) << "the deep band no longer crosses 2^64";
    }
  }

  /// Sorting every labeled node by its key yields DOM preorder, and the
  /// sign of a key comparison is the sign of CompareIds.
  void ExpectOrderKeyIsDocumentOrder(uint64_t seed) {
    std::vector<xml::Node*> preorder = testing::AllNodes(doc_->root());
    std::vector<xml::Node*> by_key = preorder;
    Rng rng(seed);
    for (size_t i = by_key.size(); i > 1; --i) {
      std::swap(by_key[i - 1], by_key[rng.NextBounded(i)]);
    }
    std::sort(by_key.begin(), by_key.end(),
              [&](const xml::Node* a, const xml::Node* b) {
                return axes_->PreorderRank(a) < axes_->PreorderRank(b);
              });
    EXPECT_EQ(by_key, preorder);
    for (int i = 0; i < 2000; ++i) {
      xml::Node* a = preorder[rng.NextBounded(preorder.size())];
      xml::Node* b = preorder[rng.NextBounded(preorder.size())];
      uint32_t ra = axes_->PreorderRank(a);
      uint32_t rb = axes_->PreorderRank(b);
      int by_rank = ra < rb ? -1 : (ra > rb ? 1 : 0);
      int by_ids = scheme_->CompareIds(scheme_->label(a), scheme_->label(b));
      EXPECT_EQ(by_rank, by_ids < 0 ? -1 : (by_ids > 0 ? 1 : 0))
          << scheme_->label(a).ToString() << " vs "
          << scheme_->label(b).ToString();
    }
  }

  /// rdescendant of every node, area roots included, is its DOM subtree.
  void ExpectDescendantsMatchDom() {
    for (xml::Node* n : testing::AllNodes(doc_->root())) {
      auto got =
          testing::SortedBySerial(axes_->Descendants(scheme_->label(n)));
      auto expected = testing::SortedBySerial(testing::DomDescendants(n));
      EXPECT_EQ(got, expected) << scheme_->label(n).ToString();
    }
  }

  std::unique_ptr<xml::Document> doc_;
  std::unique_ptr<Ruid2Scheme> scheme_;
  std::unique_ptr<RuidAxes> axes_;
};

TEST_P(AxesPropertyTest, OrderKeyIsDocumentOrder) {
  ExpectOrderKeyIsDocumentOrder(1);
}

TEST_P(AxesPropertyTest, OrderKeyAndDescendantsHoldAfterUpdates) {
  Rng rng(17);
  for (int round = 0; round < 12; ++round) {
    std::vector<xml::Node*> nodes = testing::AllNodes(doc_->root());
    if (round % 3 != 2) {
      xml::Node* parent = nodes[rng.NextBounded(nodes.size())];
      if (!parent->is_element()) parent = doc_->root();
      xml::Node* fresh = doc_->CreateElement("fresh");
      ASSERT_TRUE(
          doc_->AppendChild(fresh, doc_->CreateElement("inner")).ok());
      auto report = scheme_->InsertAndRelabel(
          doc_.get(), parent, rng.NextBounded(parent->fanout() + 1), fresh);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
    } else {
      // A small subtree, so the document keeps most of its shape.
      xml::Node* victim = nullptr;
      for (int tries = 0; tries < 50 && victim == nullptr; ++tries) {
        xml::Node* n = nodes[1 + rng.NextBounded(nodes.size() - 1)];
        if (testing::DomDescendants(n).size() < 20) victim = n;
      }
      ASSERT_NE(victim, nullptr);
      auto report = scheme_->RemoveAndRelabel(doc_.get(), victim);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
    }
    axes_->Refresh();
    ExpectOrderKeyIsDocumentOrder(100 + static_cast<uint64_t>(round));
  }
  // Removals dropped areas, so the frame-child lists were rebuilt too.
  ExpectDescendantsMatchDom();
}

TEST_P(AxesPropertyTest, DescendantsOfEveryNodeMatchDom) {
  ExpectDescendantsMatchDom();
}

INSTANTIATE_TEST_SUITE_P(Topologies, AxesPropertyTest,
                         ::testing::Values("xmark", "dblp", "random", "deep"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(AxesEdgeTest, SingleNodeDocument) {
  auto doc = testing::MustParse("<only/>");
  Ruid2Scheme scheme;
  scheme.Build(doc->root());
  RuidAxes axes(&scheme);
  Ruid2Id root = scheme.label(doc->root());
  EXPECT_EQ(axes.PreorderRank(doc->root()), 0u);
  EXPECT_TRUE(axes.Children(root).empty());
  EXPECT_TRUE(axes.Descendants(root).empty());
  EXPECT_TRUE(axes.Ancestors(root).empty());
  EXPECT_TRUE(axes.Preceding(root).empty());
  EXPECT_TRUE(axes.Following(root).empty());
  EXPECT_TRUE(axes.PrecedingSiblings(root).empty());
  EXPECT_TRUE(axes.FollowingSiblings(root).empty());
}

}  // namespace
}  // namespace core
}  // namespace ruidx
