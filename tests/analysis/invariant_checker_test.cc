// The invariant verifier, both directions: clean documents pass every
// check, and each seeded corruption is caught with a descriptive error
// naming the violated invariant. Corruption is injected through test peers
// that reach into the production classes' private state — the public API
// cannot produce these states, which is the point of the fsck.
#include "analysis/invariant_checker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/ruid2.h"
#include "core/ruidm.h"
#include "storage/element_store.h"
#include "testutil.h"
#include "xml/generator.h"

namespace ruidx {
namespace core {

/// Reaches into KTable to fabricate the inconsistent states the mutation
/// DCHECKs and the verifier must catch.
class KTableTestPeer {
 public:
  static void CorruptPackedFanout(KTable* k, size_t i, uint64_t fanout) {
    k->packed_rows_.at(i).fanout = fanout;
  }
  static void SetRowFanout(KTable* k, size_t i, uint64_t fanout) {
    k->rows_.at(i).fanout = fanout;
    k->SyncPacked(k->rows_.at(i));  // keep the mirror in lockstep on purpose
  }
  static void SwapRows(KTable* k, size_t i, size_t j) {
    std::swap(k->rows_.at(i), k->rows_.at(j));
  }
};

class Ruid2SchemeTestPeer {
 public:
  static KTable* MutableKTable(Ruid2Scheme* s) { return &s->ktable_; }
  /// Gives `dup` the identifier `src` already carries, bypassing SetLabel's
  /// index maintenance — two nodes now share one identifier.
  static void DuplicateLabel(Ruid2Scheme* s, const xml::Node* src,
                             const xml::Node* dup) {
    s->labels_.at(dup->serial()).id = s->labels_.at(src->serial()).id;
  }
  /// Swaps the identifiers of two nodes through SetLabel, so the label
  /// array and the identifier index stay consistent: the label/index
  /// bijection survives, but rparent() no longer inverts the DOM edges of
  /// either node.
  static void SwapLabels(Ruid2Scheme* s, xml::Node* a, xml::Node* b) {
    Ruid2Id ia = s->label(a);
    Ruid2Id ib = s->label(b);
    s->SetLabel(a, ib, nullptr);
    s->SetLabel(b, ia, nullptr);
  }
};

class AncestorPathCacheTestPeer {
 public:
  /// Appends a bogus identifier to every memoized BigUint chain.
  static size_t CorruptChains(AncestorPathCache* cache) {
    MutexLock lock(&cache->mu_);
    for (auto& [global, chain] : cache->chains_) {
      chain.push_back(Ruid2Id{BigUint(999), BigUint(999), false});
    }
    return cache->chains_.size();
  }
};

}  // namespace core

namespace storage {

class ElementStoreTestPeer {
 public:
  /// Inserts `record` under an arbitrary `key`, bypassing EncodeIdKey — the
  /// store-key/identifier agreement the verifier asserts.
  static Status InsertRaw(ElementStore* store, const BPlusTree::Key& key,
                          const ElementRecord& record) {
    RUIDX_ASSIGN_OR_RETURN(uint64_t location,
                           store->AppendRecord(record, record.path_term));
    return store->index_->Insert(key, location);
  }

  /// Drops one name posting behind the store's back — coverage corruption
  /// for the [name-index-coverage] invariant.
  static Status DropNamePosting(ElementStore* store,
                                const ElementRecord& record) {
    return store->name_index_->Remove(HashNameTerm(record.name), record.id);
  }

  /// Re-points one path posting at a different heap location — agreement
  /// corruption for the [path-index-coverage] invariant.
  static Status RetargetPathPosting(ElementStore* store,
                                    const ElementRecord& record,
                                    uint64_t bogus_location) {
    return store->path_index_->Add(record.path_term, record.id,
                                   bogus_location);
  }

  /// Heap location of a stored record — donor material for
  /// RetargetPathPosting.
  static Result<uint64_t> LocationOf(ElementStore* store,
                                     const core::Ruid2Id& id) {
    RUIDX_ASSIGN_OR_RETURN(BPlusTree::Key key, storage::EncodeIdKey(id));
    return store->index_->Get(key);
  }
};

}  // namespace storage

namespace {

using analysis::CheckDocumentInvariants;
using analysis::CheckOptions;
using analysis::CheckReport;
using analysis::CheckStoreInvariants;
using core::AncestorPathCacheTestPeer;
using core::KTable;
using core::KTableTestPeer;
using core::Ruid2Id;
using core::Ruid2Scheme;
using core::Ruid2SchemeTestPeer;
using ruidx::testing::MustParse;

constexpr const char* kBookXml = R"(
<library>
  <shelf id="a">
    <book><title>One</title><author>A</author><year>1999</year></book>
    <book><title>Two</title><author>B</author><year>2001</year></book>
    <book><title>Three</title><author>C</author><year>2002</year></book>
  </shelf>
  <shelf id="b">
    <book><title>Four</title><author>D</author></book>
    <magazine><title>Five</title></magazine>
  </shelf>
  <office><desk/><desk/><desk/></office>
</library>
)";

/// Small areas so even the inline documents have a real frame.
core::PartitionOptions SmallAreas() {
  core::PartitionOptions options;
  options.max_area_nodes = 6;
  options.max_area_depth = 2;
  return options;
}

TEST(InvariantCheckerTest, CleanDocumentPassesEveryInvariant) {
  auto doc = MustParse(kBookXml);
  Ruid2Scheme scheme(SmallAreas());
  scheme.Build(doc->root());

  CheckReport report;
  Status st = CheckDocumentInvariants(scheme, doc->root(), {}, &report);
  ASSERT_TRUE(st.ok()) << st.ToString();
  // Every invariant of the catalogue ran.
  std::vector<std::string> expected = {
      "ktable-sorted",   "ktable-packed-mirror", "partition-cover",
      "ktable-partition", "frame-fanout-bound",  "id-unique",
      "rparent-closure", "order-agreement",      "id-key-order",
      "cache-coherence", "packed-agreement"};
  EXPECT_EQ(report.invariants, expected) << report.Summary();
  EXPECT_GT(report.areas_checked, 1u);
  EXPECT_GT(report.pairs_sampled, 0u);
}

TEST(InvariantCheckerTest, CleanGeneratedDocumentsPass) {
  struct Case {
    const char* name;
    std::unique_ptr<xml::Document> doc;
  };
  std::vector<Case> cases;
  cases.push_back({"uniform", xml::GenerateUniformTree(300, 4)});
  xml::RandomTreeConfig random_config;
  random_config.node_budget = 400;
  random_config.seed = 7;
  cases.push_back({"random", xml::GenerateRandomTree(random_config)});
  cases.push_back({"dblp", xml::GenerateDblpLike(40, 11)});

  for (const Case& c : cases) {
    Ruid2Scheme scheme;  // default budgets
    scheme.Build(c.doc->root());
    CheckReport report;
    Status st = CheckDocumentInvariants(scheme, c.doc->root(), {}, &report);
    EXPECT_TRUE(st.ok()) << c.name << ": " << st.ToString();
    EXPECT_GT(report.nodes_checked, 0u) << c.name;
  }
}

TEST(InvariantCheckerTest, CleanAfterIncrementalUpdates) {
  auto doc = MustParse(kBookXml);
  Ruid2Scheme scheme(SmallAreas());
  scheme.Build(doc->root());

  xml::Node* shelf = doc->root()->FirstChildElement("shelf");
  ASSERT_NE(shelf, nullptr);
  xml::Node* extra = doc->CreateElement("book");
  ASSERT_TRUE(doc->AppendChild(extra, doc->CreateElement("title")).ok());
  ASSERT_TRUE(scheme.InsertAndRelabel(doc.get(), shelf, 1, extra).ok());

  // Deletions can legally shrink the source fan-out below the frame's.
  CheckOptions after_update;
  after_update.check_frame_bound = false;
  xml::Node* victim = shelf->children().back();
  ASSERT_TRUE(scheme.RemoveAndRelabel(doc.get(), victim).ok());

  Status st = CheckDocumentInvariants(scheme, doc->root(), after_update);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

// --- Seeded corruptions: each must be caught and named -----------------------

TEST(InvariantCheckerTest, CatchesStalePackedMirrorRow) {
  auto doc = MustParse(kBookXml);
  Ruid2Scheme scheme(SmallAreas());
  scheme.Build(doc->root());
  KTable* k = Ruid2SchemeTestPeer::MutableKTable(&scheme);
  ASSERT_GT(k->packed_size(), 0u);
  KTableTestPeer::CorruptPackedFanout(k, 0, 424242);

  Status st = CheckDocumentInvariants(scheme, doc->root());
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("ktable-packed-mirror"), std::string::npos)
      << st.ToString();
}

TEST(InvariantCheckerTest, CatchesWrongFanoutInKRow) {
  auto doc = MustParse(kBookXml);
  Ruid2Scheme scheme(SmallAreas());
  scheme.Build(doc->root());
  KTable* k = Ruid2SchemeTestPeer::MutableKTable(&scheme);
  ASSERT_GT(k->size(), 1u);
  // Mirror kept in sync on purpose: the partition/K agreement check, not
  // the mirror check, must catch this.
  KTableTestPeer::SetRowFanout(k, k->size() - 1, 77);

  Status st = CheckDocumentInvariants(scheme, doc->root());
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("ktable-partition"), std::string::npos)
      << st.ToString();
}

TEST(InvariantCheckerTest, CatchesUnsortedKTable) {
  auto doc = MustParse(kBookXml);
  Ruid2Scheme scheme(SmallAreas());
  scheme.Build(doc->root());
  KTable* k = Ruid2SchemeTestPeer::MutableKTable(&scheme);
  ASSERT_GT(k->size(), 1u);
  KTableTestPeer::SwapRows(k, 0, k->size() - 1);

  Status st = CheckDocumentInvariants(scheme, doc->root());
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("ktable-sorted"), std::string::npos)
      << st.ToString();
}

TEST(InvariantCheckerTest, CatchesDuplicateIdentifier) {
  auto doc = MustParse(kBookXml);
  Ruid2Scheme scheme(SmallAreas());
  scheme.Build(doc->root());
  // Two distinct <title> leaves in different subtrees.
  std::vector<xml::Node*> titles;
  xml::PreorderTraverse(doc->root(), [&](xml::Node* n, int) {
    if (n->name() == "title") titles.push_back(n);
    return true;
  });
  ASSERT_GE(titles.size(), 2u);
  Ruid2SchemeTestPeer::DuplicateLabel(&scheme, titles[0], titles[1]);

  Status st = CheckDocumentInvariants(scheme, doc->root());
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("id-unique"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.ToString().find("share"), std::string::npos) << st.ToString();
}

TEST(InvariantCheckerTest, CatchesBrokenRparentClosure) {
  auto doc = MustParse(kBookXml);
  Ruid2Scheme scheme(SmallAreas());
  scheme.Build(doc->root());
  // Swap the labels of two text leaves under different parents: the
  // label/index bijection survives, but rparent() now "inverts" edges that
  // do not exist in the DOM.
  std::vector<xml::Node*> leaves;
  xml::PreorderTraverse(doc->root(), [&](xml::Node* n, int) {
    if (n->is_text() && !scheme.label(n).is_area_root) leaves.push_back(n);
    return true;
  });
  ASSERT_GE(leaves.size(), 2u);
  xml::Node* a = leaves.front();
  xml::Node* b = nullptr;
  for (xml::Node* cand : leaves) {
    if (cand->parent() != a->parent() &&
        !(scheme.label(cand) == scheme.label(a))) {
      b = cand;
      break;
    }
  }
  ASSERT_NE(b, nullptr);
  Ruid2SchemeTestPeer::SwapLabels(&scheme, a, b);

  Status st = CheckDocumentInvariants(scheme, doc->root());
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("rparent-closure"), std::string::npos)
      << st.ToString();
}

TEST(InvariantCheckerTest, CatchesCorruptedCacheEntry) {
  auto doc = MustParse(kBookXml);
  Ruid2Scheme scheme(SmallAreas());
  scheme.Build(doc->root());
  // Warm the BigUint per-area chains, then corrupt every entry.
  for (const auto& row : scheme.ktable().rows()) {
    scheme.ancestor_cache().AreaRootAncestors(row.global, scheme.kappa(),
                                              scheme.ktable());
  }
  ASSERT_GT(AncestorPathCacheTestPeer::CorruptChains(&scheme.ancestor_cache()),
            0u);

  Status st = CheckDocumentInvariants(scheme, doc->root());
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("cache-coherence"), std::string::npos)
      << st.ToString();
}

TEST(InvariantCheckerTest, CatchesStoreKeyIdentifierMismatch) {
  auto doc = MustParse(kBookXml);
  Ruid2Scheme scheme(SmallAreas());
  scheme.Build(doc->root());
  auto store = storage::ElementStore::Create("");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(scheme, doc->root()).ok());
  ASSERT_TRUE(
      CheckStoreInvariants(scheme, doc->root(), store->get()).ok());

  // Re-file one real record under a fabricated key: the key decodes to an
  // identifier no node carries and the record does not match it either.
  const Ruid2Id& real = scheme.label(doc->root()->children().front());
  auto record = (*store)->Get(real);
  ASSERT_TRUE(record.ok());
  Ruid2Id bogus{BigUint(999983), BigUint(7), false};
  auto key = storage::EncodeIdKey(bogus);
  ASSERT_TRUE(key.ok());
  ASSERT_TRUE(
      storage::ElementStoreTestPeer::InsertRaw(store->get(), *key, *record)
          .ok());

  Status st = CheckStoreInvariants(scheme, doc->root(), store->get());
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("store-key-id"), std::string::npos)
      << st.ToString();
}

TEST(InvariantCheckerTest, CatchesDroppedNamePosting) {
  auto doc = MustParse(kBookXml);
  Ruid2Scheme scheme(SmallAreas());
  scheme.Build(doc->root());
  auto store = storage::ElementStore::Create("");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(scheme, doc->root()).ok());
  ASSERT_TRUE(CheckStoreInvariants(scheme, doc->root(), store->get()).ok());

  // Delete one record's name posting behind the store's back: every
  // surviving posting still agrees with the DOM, so the coverage count is
  // what convicts.
  const Ruid2Id& victim = scheme.label(doc->root()->children().front());
  auto record = (*store)->Get(victim);
  ASSERT_TRUE(record.ok());
  ASSERT_TRUE(
      storage::ElementStoreTestPeer::DropNamePosting(store->get(), *record)
          .ok());

  Status st = CheckStoreInvariants(scheme, doc->root(), store->get());
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("name-index-coverage"), std::string::npos)
      << st.ToString();
}

TEST(InvariantCheckerTest, CatchesRetargetedPathPosting) {
  auto doc = MustParse(kBookXml);
  Ruid2Scheme scheme(SmallAreas());
  scheme.Build(doc->root());
  auto store = storage::ElementStore::Create("");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(scheme, doc->root()).ok());
  ASSERT_TRUE(CheckStoreInvariants(scheme, doc->root(), store->get()).ok());

  // Re-point one path posting at a *different* record's heap bytes. Term
  // and document order still hold, so the scheme-aware pass stays silent;
  // the store-side postings↔heap agreement check is what fires.
  xml::Node* first = doc->root()->children().front();
  xml::Node* second = doc->root()->children()[1];
  const Ruid2Id& victim_id = scheme.label(first);
  auto victim = (*store)->Get(victim_id);
  ASSERT_TRUE(victim.ok());
  auto donor_location = storage::ElementStoreTestPeer::LocationOf(
      store->get(), scheme.label(second));
  ASSERT_TRUE(donor_location.ok());
  ASSERT_TRUE(storage::ElementStoreTestPeer::RetargetPathPosting(
                  store->get(), *victim, *donor_location)
                  .ok());

  Status st = CheckStoreInvariants(scheme, doc->root(), store->get());
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("path-index-coverage"), std::string::npos)
      << st.ToString();
}

// --- Store and multilevel positives ------------------------------------------

TEST(InvariantCheckerTest, CleanStorePasses) {
  auto doc = MustParse(kBookXml);
  Ruid2Scheme scheme(SmallAreas());
  scheme.Build(doc->root());
  auto store = storage::ElementStore::Create("");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(scheme, doc->root()).ok());

  CheckReport report;
  Status st =
      CheckStoreInvariants(scheme, doc->root(), store->get(), {}, &report);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(report.nodes_checked, scheme.label_count());
  std::vector<std::string> expected = {
      "store-key-order",     "store-key-id",     "store-coverage",
      "name-index-coverage", "path-index-order", "page-checksum",
      "lsn-monotonic",       "free-list",        "tree-reachability",
      "index-consistency"};
  EXPECT_EQ(report.invariants, expected);
}

TEST(InvariantCheckerTest, CleanRuidMPasses) {
  auto doc = MustParse(kBookXml);
  core::RuidMScheme scheme(3, SmallAreas());
  ASSERT_TRUE(scheme.Build(doc->root()).ok());

  CheckReport report;
  Status st = analysis::CheckRuidMInvariants(scheme, doc->root(), {}, &report);
  EXPECT_TRUE(st.ok()) << st.ToString();
  std::vector<std::string> expected = {"ruidm-unique", "ruidm-parent-closure",
                                       "ruidm-order"};
  EXPECT_EQ(report.invariants, expected);
}

}  // namespace
}  // namespace ruidx
