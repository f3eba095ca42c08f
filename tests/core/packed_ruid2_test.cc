// The packed fast path must be invisible: every identifier entry point
// (packed first, BigUint on kFallback) must return exactly what the BigUint
// reference returns when called directly — same values, same status codes,
// same messages — including on trees engineered to overflow the packed
// range (locals past 2^63, globals past 2^128) where individual steps fall
// back mid-chain.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/packed_ruid2_id.h"
#include "core/ruid2.h"
#include "storage/element_store.h"
#include "testutil.h"
#include "util/random.h"
#include "xml/generator.h"
#include "xpath/structural_join.h"

namespace ruidx {
namespace core {
namespace {

BigUint Pow2(int bits) {
  BigUint v(1);
  for (int i = 0; i < bits; ++i) v *= uint64_t{2};
  return v;
}

TEST(PackedRuid2IdTest, PackBoundaries) {
  PackedRuid2Id p;
  // local 2^63 - 1 is the largest packable local.
  EXPECT_TRUE(PackRuid2Id(Ruid2Id{BigUint(7), Pow2(63) - 1, false}, &p));
  EXPECT_EQ(p.local(), (uint64_t{1} << 63) - 1);
  EXPECT_FALSE(p.is_area_root());
  // local 2^63 collides with the root bit: not packable.
  EXPECT_FALSE(PackRuid2Id(Ruid2Id{BigUint(7), Pow2(63), false}, &p));
  // global 2^128 - 1 is the largest packable global (two machine words).
  EXPECT_TRUE(PackRuid2Id(Ruid2Id{Pow2(128) - 1, BigUint(5), true}, &p));
  EXPECT_EQ(p.global, ~uint128_t{0});
  EXPECT_TRUE(p.is_area_root());
  EXPECT_EQ(p.local(), 5u);
  // global 2^128 needs a third word: not packable.
  EXPECT_FALSE(PackRuid2Id(Ruid2Id{Pow2(128), BigUint(5), true}, &p));
}

TEST(PackedRuid2IdTest, PackUnpackIsIdentity) {
  std::vector<Ruid2Id> ids{
      Ruid2RootId(),
      Ruid2Id{BigUint(3), BigUint(12), false},
      Ruid2Id{Pow2(64) - 1, Pow2(63) - 1, true},
      Ruid2Id{Pow2(128) - 1, Pow2(63) - 1, true},
  };
  for (const Ruid2Id& id : ids) {
    PackedRuid2Id p;
    ASSERT_TRUE(PackRuid2Id(id, &p));
    EXPECT_EQ(UnpackRuid2Id(p), id) << id.ToString();
  }
  PackedRuid2Id root;
  ASSERT_TRUE(PackRuid2Id(Ruid2RootId(), &root));
  EXPECT_EQ(root, PackedRuid2RootId());
}

PartitionOptions SmallAreas() {
  PartitionOptions options;
  options.max_area_nodes = 24;
  options.max_area_depth = 3;
  return options;
}

/// A tree whose local indices overflow 2^63: one area holds a depth-45
/// spine with fan-out 3, so spine locals grow like 3^depth (~2^71).
std::unique_ptr<xml::Document> LocalOverflowDoc() {
  xml::DeepTreeConfig config;
  config.depth = 45;
  config.siblings_per_level = 2;  // fanout 3 with the spine child
  return xml::GenerateDeepTree(config);
}

PartitionOptions HugeAreas() {
  PartitionOptions options;
  options.max_area_nodes = 100000;
  options.max_area_depth = 1000;
  return options;
}

/// A tree deep enough that per-node area globals overflow 2^128: under
/// TinyAreas the frame is the tree itself, globals grow like kappa^depth
/// (kappa = 3 here), and 3^90 ~ 2^142 clears the 2-word packed range.
std::unique_ptr<xml::Document> GlobalOverflowDoc() {
  xml::DeepTreeConfig config;
  config.depth = 90;
  config.siblings_per_level = 2;  // fanout 3 with the spine child
  return xml::GenerateDeepTree(config);
}

/// A partition whose global indices overflow 2^128: every node roots its own
/// area, so the frame is the deep tree itself and globals grow like
/// kappa^depth.
PartitionOptions TinyAreas() {
  PartitionOptions options;
  options.max_area_nodes = 2;
  options.max_area_depth = 1;
  return options;
}

/// The BigUint reference's root-to-node chain of `id` (the node last).
std::vector<Ruid2Id> ReferenceChain(const Ruid2Scheme& scheme,
                                    const Ruid2Id& id) {
  std::vector<Ruid2Id> chain =
      RuidAncestorsBigUint(id, scheme.kappa(), scheme.ktable());
  std::reverse(chain.begin(), chain.end());
  chain.push_back(id);
  return chain;
}

/// Asserts that every id-level entry point of an already-built scheme
/// agrees with the BigUint reference, called directly.
void ExpectPathsAgree(const Ruid2Scheme& scheme, xml::Node* root) {
  std::vector<xml::Node*> nodes = ruidx::testing::AllNodes(root);
  // Parent and Ancestors (and AncestorsPacked, when it answers) for every
  // node.
  for (xml::Node* n : nodes) {
    const Ruid2Id& id = scheme.label(n);
    Result<Ruid2Id> fast = scheme.Parent(id);
    Result<Ruid2Id> slow =
        RuidParentBigUint(id, scheme.kappa(), scheme.ktable());
    ASSERT_EQ(fast.ok(), slow.ok()) << id.ToString();
    if (fast.ok()) {
      EXPECT_EQ(*fast, *slow) << id.ToString();
    } else {
      EXPECT_EQ(fast.status().code(), slow.status().code()) << id.ToString();
      EXPECT_EQ(fast.status().message(), slow.status().message())
          << id.ToString();
    }
    std::vector<Ruid2Id> slow_chain =
        RuidAncestorsBigUint(id, scheme.kappa(), scheme.ktable());
    EXPECT_EQ(scheme.Ancestors(id), slow_chain) << id.ToString();
    std::vector<PackedRuid2Id> packed;
    if (scheme.AncestorsPacked(id, &packed)) {
      std::vector<Ruid2Id> unpacked;
      for (const PackedRuid2Id& p : packed) {
        unpacked.push_back(UnpackRuid2Id(p));
      }
      EXPECT_EQ(unpacked, slow_chain) << id.ToString();
    }
  }
  // Order and ancestorship on a deterministic sample of pairs, against
  // Fig. 10 on the reference chains: the first divergent pair are siblings
  // ordered by local index, and a proper prefix is an ancestor.
  Rng rng(2026);
  for (int trial = 0; trial < 400; ++trial) {
    xml::Node* a = nodes[rng.Next() % nodes.size()];
    xml::Node* b = nodes[rng.Next() % nodes.size()];
    const Ruid2Id& ia = scheme.label(a);
    const Ruid2Id& ib = scheme.label(b);
    std::vector<Ruid2Id> ca = ReferenceChain(scheme, ia);
    std::vector<Ruid2Id> cb = ReferenceChain(scheme, ib);
    size_t i = 0;
    while (i < ca.size() && i < cb.size() && ca[i] == cb[i]) ++i;
    int want_cmp = 0;
    if (a != b) {
      if (i == ca.size()) {
        want_cmp = -1;  // a is an ancestor of b
      } else if (i == cb.size()) {
        want_cmp = 1;
      } else {
        want_cmp = ca[i].local < cb[i].local ? -1 : 1;
      }
    }
    bool want_anc = a != b && i == ca.size();
    EXPECT_EQ(scheme.CompareIds(ia, ib), want_cmp)
        << ia.ToString() << " vs " << ib.ToString();
    EXPECT_EQ(scheme.IsAncestorId(ia, ib), want_anc)
        << ia.ToString() << " vs " << ib.ToString();
  }
}

TEST(PackedEquivalenceTest, AgreesOnTypicalTrees) {
  for (const char* topology : {"dblp", "random", "uniform"}) {
    std::unique_ptr<xml::Document> doc;
    if (std::string(topology) == "dblp") {
      doc = xml::GenerateDblpLike(150);
    } else if (std::string(topology) == "random") {
      xml::RandomTreeConfig config;
      config.node_budget = 1200;
      config.max_fanout = 6;
      config.seed = 7;
      doc = xml::GenerateRandomTree(config);
    } else {
      doc = xml::GenerateUniformTree(800, 4);
    }
    Ruid2Scheme scheme(SmallAreas());
    scheme.Build(doc->root());
    ExpectPathsAgree(scheme, doc->root());
  }
}

TEST(PackedEquivalenceTest, AgreesWhenLocalsOverflow) {
  auto doc = LocalOverflowDoc();
  Ruid2Scheme scheme(HugeAreas());
  scheme.Build(doc->root());
  // The point of this topology: some locals must actually leave the packed
  // range, otherwise the fallback arm is untested.
  bool saw_unpackable = false;
  scheme.ForEachLabeled([&](const xml::Node*, const Ruid2Id& id) {
    PackedRuid2Id p;
    if (!PackRuid2Id(id, &p)) saw_unpackable = true;
  });
  ASSERT_TRUE(saw_unpackable) << "topology no longer overflows 63-bit locals";
  ExpectPathsAgree(scheme, doc->root());
}

TEST(PackedEquivalenceTest, AgreesWhenGlobalsOverflow) {
  auto doc = GlobalOverflowDoc();
  Ruid2Scheme scheme(TinyAreas());
  scheme.Build(doc->root());
  bool saw_unpackable_global = false;
  scheme.ForEachLabeled([&](const xml::Node*, const Ruid2Id& id) {
    if (!id.global.FitsUint128()) saw_unpackable_global = true;
  });
  ASSERT_TRUE(saw_unpackable_global)
      << "topology no longer overflows 128-bit globals";
  ExpectPathsAgree(scheme, doc->root());
}

TEST(PackedEquivalenceTest, StructuralJoinAgrees) {
  auto doc = xml::GenerateDblpLike(200);
  Ruid2Scheme scheme(SmallAreas());
  scheme.Build(doc->root());
  std::vector<xml::Node*> ancestors, descendants;
  xml::PreorderTraverse(doc->root(), [&](xml::Node* n, int) {
    if (n->name() == "article" || n->name() == "inproceedings") {
      ancestors.push_back(n);
    }
    if (n->name() == "author") descendants.push_back(n);
    return true;
  });
  ASSERT_FALSE(ancestors.empty());
  ASSERT_FALSE(descendants.empty());
  xpath::JoinResult fast =
      xpath::StructuralJoinRuid(scheme, ancestors, descendants);
  EXPECT_FALSE(fast.empty());
  EXPECT_EQ(fast, xpath::StructuralJoinNestedLoop(ancestors, descendants));
}

TEST(PackedEquivalenceTest, StructuralJoinAgreesOnOverflowTree) {
  auto doc = LocalOverflowDoc();
  Ruid2Scheme scheme(HugeAreas());
  scheme.Build(doc->root());
  std::vector<xml::Node*> ancestors, descendants;
  xml::PreorderTraverse(doc->root(), [&](xml::Node* n, int depth) {
    if (depth % 3 == 0) ancestors.push_back(n);
    if (n->children().empty()) descendants.push_back(n);
    return true;
  });
  // Some chains leave the packed range: the join must fall back
  // internally, not misbehave.
  xpath::JoinResult fast =
      xpath::StructuralJoinRuid(scheme, ancestors, descendants);
  EXPECT_FALSE(fast.empty());
  EXPECT_EQ(fast, xpath::StructuralJoinNestedLoop(ancestors, descendants));
}

TEST(PackedEquivalenceTest, ElementStoreKeysRoundTripAcrossBoundary) {
  // Records whose components sit at and across the packed boundaries must
  // round-trip through a store, and their keys must be byte-for-byte the
  // BigUint big-endian halves plus the flag byte.
  std::vector<Ruid2Id> ids{
      Ruid2RootId(),
      Ruid2Id{BigUint(3), BigUint(900), false},
      Ruid2Id{BigUint(3), Pow2(63) - 1, false},
      Ruid2Id{BigUint(3), Pow2(63), false},       // local past the id range
      Ruid2Id{Pow2(64) - 1, BigUint(2), false},   // one-word boundary
      Ruid2Id{Pow2(64), BigUint(2), false},       // global needs word two
      Ruid2Id{Pow2(64) + 5, Pow2(63) + 9, true},
      // Largest id the full Put path accepts (the posting-key codec caps
      // components at 96 bits); both halves need the second packed word.
      Ruid2Id{Pow2(96) - 1, Pow2(96) - 1, true},
  };
  for (const Ruid2Id& id : ids) {
    auto key = storage::EncodeIdKey(id);
    ASSERT_TRUE(key.ok()) << id.ToString();
    storage::BPlusTree::Key want{};
    ASSERT_TRUE(id.global.ToBytesBE(want.data(), 16));
    ASSERT_TRUE(id.local.ToBytesBE(want.data() + 16, 16));
    want[32] = id.is_area_root ? 1 : 0;
    EXPECT_EQ(*key, want) << id.ToString();
    EXPECT_EQ(storage::DecodeIdKey(*key), id) << id.ToString();
  }
  auto store = storage::ElementStore::Create("");
  ASSERT_TRUE(store.ok());
  for (const Ruid2Id& id : ids) {
    storage::ElementRecord record;
    record.id = id;
    record.parent_id = id;
    record.name = "e";
    record.node_type = 1;
    ASSERT_TRUE((*store)->Put(record).ok()) << id.ToString();
  }
  for (const Ruid2Id& id : ids) {
    auto got = (*store)->Get(id);
    ASSERT_TRUE(got.ok()) << id.ToString();
    EXPECT_EQ(got->id, id);
  }
}

TEST(PackedEquivalenceTest, RandomizedParentChainsAgree) {
  // Randomized sweep across partition budgets: rebuild, then compare the
  // full parent chain of every node with the BigUint reference.
  Rng rng(99);
  for (int round = 0; round < 6; ++round) {
    xml::RandomTreeConfig config;
    config.node_budget = 400 + (rng.Next() % 600);
    config.max_fanout = 2 + (rng.Next() % 7);
    config.seed = rng.Next();
    auto doc = xml::GenerateRandomTree(config);
    PartitionOptions options;
    options.max_area_nodes = 2 + (rng.Next() % 40);
    options.max_area_depth = 1 + (rng.Next() % 5);
    Ruid2Scheme scheme(options);
    scheme.Build(doc->root());
    ExpectPathsAgree(scheme, doc->root());
  }
}

/// Asserts that every identifier of `scheme` packs and that neither
/// PackedRuidParent nor the packed ancestor chains ever fall back: on this
/// document the BigUint arms serve no call.
void ExpectPackedPathNeverFallsBack(const Ruid2Scheme& scheme) {
  std::vector<PackedRuid2Id> chain;
  scheme.ForEachLabeled([&](const xml::Node*, const Ruid2Id& id) {
    PackedRuid2Id packed;
    ASSERT_TRUE(PackRuid2Id(id, &packed)) << id.ToString();
    PackedRuid2Id parent;
    EXPECT_NE(PackedRuidParent(packed, scheme.kappa(), scheme.ktable(),
                               &parent),
              PackedParentStatus::kFallback)
        << id.ToString();
    EXPECT_TRUE(scheme.AncestorsPacked(id, &chain)) << id.ToString();
  });
}

TEST(PackedCoverageTest, EveryIdentifierPacksWithoutFallback) {
  // The shapes the packed path must carry alone: a 20000-node uniform tree
  // and an XMark document under small areas, and the deep band — one node
  // per area down a depth-75 spine, so frame globals cross 2^64.
  PartitionOptions bench_areas;
  bench_areas.max_area_nodes = 64;
  bench_areas.max_area_depth = 4;
  {
    auto doc = xml::GenerateUniformTree(20000, 4);
    Ruid2Scheme scheme(bench_areas);
    scheme.Build(doc->root());
    ExpectPackedPathNeverFallsBack(scheme);
  }
  {
    xml::XmarkConfig config;
    config.items = 500;
    config.people = 375;
    config.open_auctions = 300;
    config.closed_auctions = 187;
    config.categories = 77;
    auto doc = xml::GenerateXmarkLike(config);
    Ruid2Scheme scheme(bench_areas);
    scheme.Build(doc->root());
    ExpectPackedPathNeverFallsBack(scheme);
  }
  {
    xml::DeepTreeConfig config;
    config.depth = 75;
    config.siblings_per_level = 2;
    auto doc = xml::GenerateDeepTree(config);
    Ruid2Scheme scheme(TinyAreas());
    scheme.Build(doc->root());
    uint64_t past_64_bits = 0;
    scheme.ForEachLabeled([&](const xml::Node*, const Ruid2Id& id) {
      if (!id.global.FitsUint64()) ++past_64_bits;
    });
    ASSERT_GT(past_64_bits, 0u) << "the deep band no longer crosses 2^64";
    ExpectPackedPathNeverFallsBack(scheme);
  }
}

}  // namespace
}  // namespace core
}  // namespace ruidx
