// AncestorPathCache invalidation property test: after any random sequence of
// InsertAndRelabel / RemoveAndRelabel calls — in particular ones that set
// relabeled > 0, areas_dropped > 0, or local_fanout_grew — every cached
// Ancestors answer must equal a cold recomputation via the raw rparent loop,
// and CompareIds/IsAncestorId must agree with DOM ground truth.
//
// The memo serves only identifiers outside the packed range, so the tests
// that count its hits, entries and invalidations run on a tree whose deep
// globals pass 2^128; packed identifiers must leave it untouched.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/ruid2.h"
#include "testutil.h"
#include "util/random.h"
#include "xml/generator.h"

namespace ruidx {
namespace core {
namespace {

PartitionOptions SmallAreas() {
  PartitionOptions options;
  options.max_area_nodes = 10;
  options.max_area_depth = 2;
  return options;
}

/// packed_ruid2_test's global-overflow shape: a depth-90 spine with two
/// leaf siblings per level, every node rooting its own area, so the frame is
/// the tree itself and globals grow like kappa^depth (3^90 ~ 2^142). The
/// deep identifiers do not pack, and their chains go through the memo.
std::unique_ptr<xml::Document> GlobalOverflowDoc() {
  xml::DeepTreeConfig config;
  config.depth = 90;
  config.siblings_per_level = 2;
  return xml::GenerateDeepTree(config);
}

PartitionOptions TinyAreas() {
  PartitionOptions options;
  options.max_area_nodes = 2;
  options.max_area_depth = 1;
  return options;
}

/// The spine section at `depth` (the root section is depth 0).
xml::Node* SpineNode(xml::Node* root, int depth) {
  xml::Node* cur = root;
  for (int d = 0; d < depth; ++d) {
    for (xml::Node* c : cur->children()) {
      if (c->name() == "section") cur = c;
    }
  }
  return cur;
}

/// Cold recomputation of the ancestor chain: the bare rparent() loop on
/// (κ, K), bypassing the cache entirely.
std::vector<Ruid2Id> ColdAncestors(const Ruid2Scheme& scheme,
                                   const Ruid2Id& id) {
  std::vector<Ruid2Id> chain;
  Ruid2Id cur = id;
  while (!(cur == Ruid2RootId())) {
    auto parent = RuidParent(cur, scheme.kappa(), scheme.ktable());
    if (!parent.ok()) break;
    chain.push_back(*parent);
    cur = *parent;
  }
  return chain;
}

/// Every node's cached chain must equal the cold chain, and the
/// identifier-space relations must match the DOM.
void CheckCacheAgainstColdRecompute(Ruid2Scheme& scheme, xml::Node* root) {
  std::vector<xml::Node*> nodes = ruidx::testing::AllNodes(root);
  for (xml::Node* n : nodes) {
    ASSERT_TRUE(scheme.HasLabel(n));
    std::vector<Ruid2Id> cached = scheme.Ancestors(scheme.label(n));
    std::vector<Ruid2Id> cold = ColdAncestors(scheme, scheme.label(n));
    ASSERT_EQ(cached.size(), cold.size())
        << "chain length for <" << n->name() << "> "
        << scheme.label(n).ToString();
    for (size_t i = 0; i < cold.size(); ++i) {
      ASSERT_EQ(cached[i], cold[i])
          << "chain[" << i << "] for " << scheme.label(n).ToString();
    }
    // The identifier chain must also name the true DOM ancestors.
    std::vector<xml::Node*> dom = ruidx::testing::DomAncestors(n);
    ASSERT_EQ(cached.size(), dom.size());
    for (size_t i = 0; i < dom.size(); ++i) {
      ASSERT_EQ(cached[i], scheme.label(dom[i]));
    }
  }
}

void CheckRelationsOnSample(Ruid2Scheme& scheme, xml::Node* root, Rng& rng) {
  std::vector<xml::Node*> nodes = ruidx::testing::AllNodes(root);
  for (int trial = 0; trial < 64; ++trial) {
    xml::Node* a = nodes[rng.NextBounded(nodes.size())];
    xml::Node* d = nodes[rng.NextBounded(nodes.size())];
    bool dom_anc = false;
    for (xml::Node* p : ruidx::testing::DomAncestors(d)) {
      if (p == a) dom_anc = true;
    }
    EXPECT_EQ(scheme.IsAncestorId(scheme.label(a), scheme.label(d)), dom_anc);
    int cmp = scheme.CompareIds(scheme.label(a), scheme.label(d));
    if (a == d) {
      EXPECT_EQ(cmp, 0);
    } else if (dom_anc) {
      EXPECT_LT(cmp, 0);  // ancestor precedes descendant in document order
    }
  }
}

TEST(AncestorCacheTest, WarmHitsAfterRepeatedQueries) {
  auto doc = GlobalOverflowDoc();
  Ruid2Scheme scheme(TinyAreas());
  scheme.Build(doc->root());
  std::vector<xml::Node*> nodes = ruidx::testing::AllNodes(doc->root());
  for (xml::Node* n : nodes) (void)scheme.Ancestors(scheme.label(n));
  uint64_t misses_after_first = scheme.ancestor_cache().misses();
  for (xml::Node* n : nodes) (void)scheme.Ancestors(scheme.label(n));
  // Second sweep must be all hits: no new area chain is computed.
  EXPECT_EQ(scheme.ancestor_cache().misses(), misses_after_first);
  EXPECT_GT(scheme.ancestor_cache().hits(), 0u);
  EXPECT_GT(scheme.ancestor_cache().entry_count(), 0u);
}

TEST(AncestorCacheTest, CachedChainsMatchColdClimb) {
  auto doc = GlobalOverflowDoc();
  Ruid2Scheme scheme(TinyAreas());
  scheme.Build(doc->root());
  std::vector<xml::Node*> nodes = ruidx::testing::AllNodes(doc->root());
  // Warm every area chain first, then answer from the cache.
  for (xml::Node* n : nodes) (void)scheme.Ancestors(scheme.label(n));
  for (xml::Node* n : nodes) {
    EXPECT_EQ(scheme.Ancestors(scheme.label(n)),
              ColdAncestors(scheme, scheme.label(n)));
  }
  EXPECT_GT(scheme.ancestor_cache().hits(), 0u);
}

TEST(AncestorCacheTest, InsertThatGrowsFanoutInvalidates) {
  auto doc = GlobalOverflowDoc();
  Ruid2Scheme scheme(TinyAreas());
  scheme.Build(doc->root());
  // Warm the cache on every node first.
  for (xml::Node* n : ruidx::testing::AllNodes(doc->root())) {
    (void)scheme.Ancestors(scheme.label(n));
  }
  // Keep inserting under one parent until the local fanout grows (or we
  // relabel); either way the cache must have been dropped and the answers
  // must still match cold recomputation.
  xml::Node* parent = SpineNode(doc->root(), 85);
  bool invalidated = false;
  for (int i = 0; i < 12 && !invalidated; ++i) {
    xml::Node* leaf = doc->CreateElement("pad");
    auto report = scheme.InsertAndRelabel(doc.get(), parent, 0, leaf);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    invalidated = report->relabeled > 0 || report->local_fanout_grew ||
                  report->areas_dropped > 0;
  }
  ASSERT_TRUE(invalidated);
  EXPECT_GT(scheme.ancestor_cache().invalidations(), 0u);
  CheckCacheAgainstColdRecompute(scheme, doc->root());
}

TEST(AncestorCacheTest, RemovingSubtreeDropsAreasAndStaysConsistent) {
  auto doc = GlobalOverflowDoc();
  Ruid2Scheme scheme(TinyAreas());
  scheme.Build(doc->root());
  for (xml::Node* n : ruidx::testing::AllNodes(doc->root())) {
    (void)scheme.Ancestors(scheme.label(n));
  }
  // Removing a big subtree drops every area rooted inside it.
  xml::Node* victim = SpineNode(doc->root(), 80);
  auto report = scheme.RemoveAndRelabel(doc.get(), victim);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->areas_dropped, 0u);
  EXPECT_GT(scheme.ancestor_cache().invalidations(), 0u);
  CheckCacheAgainstColdRecompute(scheme, doc->root());
}

TEST(AncestorCacheTest, PackedPathsLeaveTheMemoEmpty) {
  xml::XmarkConfig config;
  auto doc = xml::GenerateXmarkLike(config);
  Ruid2Scheme scheme(SmallAreas());
  scheme.Build(doc->root());
  std::vector<xml::Node*> nodes = ruidx::testing::AllNodes(doc->root());
  std::vector<PackedRuid2Id> chain;
  for (size_t i = 0; i < nodes.size(); ++i) {
    const Ruid2Id& id = scheme.label(nodes[i]);
    const Ruid2Id& other = scheme.label(nodes[(i * 7 + 3) % nodes.size()]);
    PackedRuid2Id packed;
    ASSERT_TRUE(PackRuid2Id(id, &packed)) << id.ToString();
    EXPECT_EQ(scheme.Ancestors(id).size(),
              ruidx::testing::DomAncestors(nodes[i]).size());
    ASSERT_TRUE(scheme.AncestorsPacked(id, &chain));
    (void)scheme.IsAncestorId(other, id);
    (void)scheme.CompareIds(id, other);
    ASSERT_TRUE(scheme.AreaRootAncestorsPacked(packed.global, &chain));
  }
  EXPECT_EQ(scheme.ancestor_cache().entry_count(), 0u);
  EXPECT_EQ(scheme.ancestor_cache().hits() + scheme.ancestor_cache().misses(),
            0u);
}

TEST(AncestorCacheTest, PropertyRandomUpdateSequence) {
  xml::RandomTreeConfig config;
  config.node_budget = 500;
  config.max_fanout = 5;
  config.seed = 1234;
  auto doc = xml::GenerateRandomTree(config);
  Ruid2Scheme scheme(SmallAreas());
  scheme.Build(doc->root());
  Rng rng(42);

  for (int step = 0; step < 60; ++step) {
    // Interleave queries so the cache is warm when the update lands.
    std::vector<xml::Node*> nodes = ruidx::testing::AllNodes(doc->root());
    for (int q = 0; q < 16; ++q) {
      xml::Node* n = nodes[rng.NextBounded(nodes.size())];
      (void)scheme.Ancestors(scheme.label(n));
    }
    if (rng.NextBounded(3) == 0 && nodes.size() > 50) {
      // Delete a random non-root node (its subtree goes with it).
      xml::Node* victim = nodes[1 + rng.NextBounded(nodes.size() - 1)];
      auto report = scheme.RemoveAndRelabel(doc.get(), victim);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
    } else {
      xml::Node* parent = nodes[rng.NextBounded(nodes.size())];
      xml::Node* leaf = doc->CreateElement("ins");
      size_t pos = rng.NextBounded(parent->children().size() + 1);
      auto report = scheme.InsertAndRelabel(doc.get(), parent, pos, leaf);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
    }
    // Full sweep every few steps is enough; always sweep after the last.
    if (step % 10 == 9 || step == 59) {
      CheckCacheAgainstColdRecompute(scheme, doc->root());
      CheckRelationsOnSample(scheme, doc->root(), rng);
      ASSERT_TRUE(scheme.Validate(doc->root()).ok());
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace ruidx
