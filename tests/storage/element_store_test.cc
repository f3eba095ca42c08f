#include "storage/element_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "analysis/invariant_checker.h"
#include "testutil.h"
#include "xml/generator.h"

namespace ruidx {
namespace core {

/// Gives one node the identifier another already carries — a labeling the
/// public API cannot produce.
class Ruid2SchemeTestPeer {
 public:
  static void DuplicateLabel(Ruid2Scheme* s, const xml::Node* src,
                             const xml::Node* dup) {
    s->labels_.at(dup->serial()).id = s->labels_.at(src->serial()).id;
  }
};

}  // namespace core

namespace storage {
namespace {

core::PartitionOptions SmallAreas() {
  core::PartitionOptions options;
  options.max_area_nodes = 12;
  options.max_area_depth = 3;
  return options;
}

TEST(IdKeyCodecTest, RoundTripAndOrder) {
  core::Ruid2Id a{BigUint(3), BigUint(7), false};
  core::Ruid2Id b{BigUint(3), BigUint(8), false};
  core::Ruid2Id c{BigUint(4), BigUint(1), true};
  auto ka = EncodeIdKey(a);
  auto kb = EncodeIdKey(b);
  auto kc = EncodeIdKey(c);
  ASSERT_TRUE(ka.ok() && kb.ok() && kc.ok());
  EXPECT_EQ(DecodeIdKey(*ka), a);
  EXPECT_EQ(DecodeIdKey(*kc), c);
  // Bytewise order == (global, local) order.
  EXPECT_LT(memcmp(ka->data(), kb->data(), BPlusTree::kKeySize), 0);
  EXPECT_LT(memcmp(kb->data(), kc->data(), BPlusTree::kKeySize), 0);
}

TEST(IdKeyCodecTest, BigComponents) {
  core::Ruid2Id big{BigUint::Pow(BigUint(2), 100), BigUint::Pow(BigUint(3), 60),
                    true};
  auto key = EncodeIdKey(big);
  ASSERT_TRUE(key.ok());
  EXPECT_EQ(DecodeIdKey(*key), big);
  core::Ruid2Id too_big{BigUint::Pow(BigUint(2), 129), BigUint(1), false};
  EXPECT_TRUE(EncodeIdKey(too_big).status().IsCapacityExceeded());
}

class ElementStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    doc_ = xml::GenerateDblpLike(40);
    scheme_ = std::make_unique<core::Ruid2Scheme>(SmallAreas());
    scheme_->Build(doc_->root());
    auto store = ElementStore::Create("", 32);
    ASSERT_TRUE(store.ok());
    store_ = store.MoveValueUnsafe();
    ASSERT_TRUE(store_->BulkLoad(*scheme_, doc_->root()).ok());
  }

  std::unique_ptr<xml::Document> doc_;
  std::unique_ptr<core::Ruid2Scheme> scheme_;
  std::unique_ptr<ElementStore> store_;
};

TEST_F(ElementStoreTest, BulkLoadStoresEveryNode) {
  EXPECT_EQ(store_->record_count(), scheme_->label_count());
  for (xml::Node* n : ruidx::testing::AllNodes(doc_->root())) {
    auto record = store_->Get(scheme_->label(n));
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(record->name, n->name());
    EXPECT_EQ(record->id, scheme_->label(n));
    EXPECT_EQ(static_cast<xml::NodeType>(record->node_type), n->type());
  }
}

TEST_F(ElementStoreTest, ParentPointersStored) {
  for (xml::Node* n : ruidx::testing::AllNodes(doc_->root())) {
    auto record = store_->Get(scheme_->label(n));
    ASSERT_TRUE(record.ok());
    if (n == doc_->root()) {
      EXPECT_EQ(record->parent_id, record->id);
    } else {
      EXPECT_EQ(record->parent_id, scheme_->label(n->parent()));
    }
  }
}

TEST_F(ElementStoreTest, ExistsDistinguishesVirtualIds) {
  auto real = store_->Exists(scheme_->label(doc_->root()->children()[0]));
  ASSERT_TRUE(real.ok());
  EXPECT_TRUE(*real);
  auto fake = store_->Exists(core::Ruid2Id{BigUint(1), BigUint(99999), false});
  ASSERT_TRUE(fake.ok());
  EXPECT_FALSE(*fake);
}

TEST_F(ElementStoreTest, RuidAncestorCheckNeedsNoPageAccess) {
  // Pick a deep node.
  xml::Node* deep = doc_->root()->children()[5]->children()[0];
  core::Ruid2Id a = scheme_->label(doc_->root());
  core::Ruid2Id d = scheme_->label(deep);

  ASSERT_TRUE(store_->Flush().ok());
  store_->ResetStats();
  EXPECT_TRUE(store_->IsAncestorViaRuid(*scheme_, a, d));
  EXPECT_EQ(store_->logical_page_accesses(), 0u)
      << "rparent must run without touching the store (Sec. 3.3)";

  store_->ResetStats();
  auto nav = store_->IsAncestorViaParentPointers(a, d);
  ASSERT_TRUE(nav.ok());
  EXPECT_TRUE(*nav);
  EXPECT_GT(store_->logical_page_accesses(), 0u)
      << "parent-pointer navigation must fetch records";
}

TEST_F(ElementStoreTest, BothAncestorChecksAgree) {
  auto nodes = ruidx::testing::AllNodes(doc_->root());
  for (size_t i = 0; i < nodes.size(); i += 13) {
    for (size_t j = 0; j < nodes.size(); j += 17) {
      core::Ruid2Id a = scheme_->label(nodes[i]);
      core::Ruid2Id d = scheme_->label(nodes[j]);
      bool via_ruid = store_->IsAncestorViaRuid(*scheme_, a, d);
      auto via_nav = store_->IsAncestorViaParentPointers(a, d);
      ASSERT_TRUE(via_nav.ok());
      EXPECT_EQ(via_ruid, *via_nav) << i << "," << j;
    }
  }
}

TEST_F(ElementStoreTest, FetchAncestorsReturnsChain) {
  xml::Node* deep = doc_->root()->children()[3]->children()[1];
  auto chain = store_->FetchAncestors(*scheme_, scheme_->label(deep));
  ASSERT_TRUE(chain.ok());
  auto expected = ruidx::testing::DomAncestors(deep);
  ASSERT_EQ(chain->size(), expected.size());
  for (size_t i = 0; i < chain->size(); ++i) {
    EXPECT_EQ((*chain)[i].id, scheme_->label(expected[i]));
  }
}

TEST_F(ElementStoreTest, ScanAreaReturnsAreaMembers) {
  // Area of the root: global index 1.
  size_t count = 0;
  ASSERT_TRUE(store_
                  ->ScanArea(BigUint(1),
                             [&](const ElementRecord& record) {
                               EXPECT_EQ(record.id.global, BigUint(1));
                               ++count;
                               return true;
                             })
                  .ok());
  // Non-root members of area 1 (the root is stored under global 1 too).
  EXPECT_GT(count, 0u);
  EXPECT_LT(count, store_->record_count());
}

TEST_F(ElementStoreTest, TextValuesRoundTrip) {
  auto doc = ruidx::testing::MustParse("<a><b>hello &amp; bye</b></a>");
  core::Ruid2Scheme scheme;
  scheme.Build(doc->root());
  auto store = ElementStore::Create("", 8);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(scheme, doc->root()).ok());
  xml::Node* text = doc->root()->children()[0]->children()[0];
  auto record = (*store)->Get(scheme.label(text));
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->value, "hello & bye");
}

TEST(ElementStoreEdgeTest, PersistsAcrossReopen) {
  std::string path = ::testing::TempDir() + "/ruidx_store_test.db";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  auto doc = xml::GenerateDblpLike(60);
  core::Ruid2Scheme scheme(SmallAreas());
  scheme.Build(doc->root());
  uint64_t expected_count = 0;
  {
    auto store = ElementStore::Create(path, 16);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->BulkLoad(scheme, doc->root()).ok());
    expected_count = (*store)->record_count();
    ASSERT_TRUE((*store)->Flush().ok());
  }
  {
    auto reopened = ElementStore::Open(path, 16);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ((*reopened)->record_count(), expected_count);
    // Lookups and navigational checks still work after reopen.
    xml::Node* deep = doc->root()->children()[30]->children()[0];
    auto record = (*reopened)->Get(scheme.label(deep));
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(record->name, deep->name());
    auto nav = (*reopened)->IsAncestorViaParentPointers(
        scheme.label(doc->root()), scheme.label(deep));
    ASSERT_TRUE(nav.ok());
    EXPECT_TRUE(*nav);
    // And new inserts land correctly.
    ElementRecord extra;
    extra.id = core::Ruid2Id{BigUint(999999), BigUint(2), false};
    extra.parent_id = extra.id;
    extra.name = "extra";
    ASSERT_TRUE((*reopened)->Put(extra).ok());
    auto back = (*reopened)->Get(extra.id);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->name, "extra");
  }
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

TEST(ElementStoreEdgeTest, OpenRejectsGarbageFile) {
  std::string path = ::testing::TempDir() + "/ruidx_garbage.db";
  std::vector<char> junk(kPageSize, 'x');
  // Page 0 stamped by an earlier meta layout and otherwise zero, so its
  // trailer passes: "RXS4" also named a filter page chain, and "RXS5"
  // stores may hold fixed-slot format-0 leaves.
  std::vector<char> rxs4(kPageSize, 0);
  const uint32_t rxs4_magic = 0x52585334;
  std::memcpy(rxs4.data(), &rxs4_magic, 4);
  std::vector<char> rxs5(kPageSize, 0);
  const uint32_t rxs5_magic = 0x52585335;
  std::memcpy(rxs5.data(), &rxs5_magic, 4);
  for (const std::vector<char>* page : {&junk, &rxs4, &rxs5}) {
    std::remove((path + ".wal").c_str());
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(page->data(), 1, page->size(), f);
    std::fclose(f);
    auto store = ElementStore::Open(path);
    EXPECT_TRUE(store.status().IsCorruption()) << store.status().ToString();
  }
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

TEST(ElementStoreEdgeTest, VerifyOnDiskRejectsLeafWithoutV2Format) {
  // A primary-tree leaf whose format byte is not v2, checksum intact: the
  // on-disk battery must name the leaf, and reads through it must fail.
  std::string path = ::testing::TempDir() + "/ruidx_leaf_format.db";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  auto doc = xml::GenerateUniformTree(30, 3);
  core::Ruid2Scheme scheme(SmallAreas());
  scheme.Build(doc->root());
  {
    auto store = ElementStore::Create(path);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->BulkLoad(scheme, doc->root()).ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  {
    // Meta bytes [4..8) name the primary tree's root; 30 records fit one
    // leaf, so the root is that leaf.
    auto pager = Pager::Open(path);
    ASSERT_TRUE(pager.ok()) << pager.status().ToString();
    std::vector<uint8_t> page(kPageSize);
    ASSERT_TRUE((*pager)->ReadPage(0, page.data()).ok());
    uint32_t root = 0;
    std::memcpy(&root, page.data() + 4, 4);
    ASSERT_TRUE((*pager)->ReadPage(root, page.data()).ok());
    ASSERT_EQ(page[0], 1);  // a leaf
    page[1] = 0;
    StampPageTrailer(page.data(), PageTrailerLsn(page.data()));
    ASSERT_TRUE((*pager)->WritePage(root, page.data()).ok());
    ASSERT_TRUE((*pager)->Sync().ok());
  }
  auto store = ElementStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  Status verify = (*store)->VerifyOnDisk();
  EXPECT_TRUE(verify.IsCorruption()) << verify.ToString();
  EXPECT_NE(verify.message().find("not a v2 leaf page"), std::string::npos)
      << verify.ToString();
  EXPECT_TRUE(
      (*store)->Get(scheme.label(doc->root())).status().IsCorruption());
  store->reset();
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

TEST(ElementStoreEdgeTest, LargeDocumentManyPages) {
  auto doc = xml::GenerateUniformTree(5000, 4);
  core::Ruid2Scheme scheme(SmallAreas());
  scheme.Build(doc->root());
  auto store = ElementStore::Create("", 16);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(scheme, doc->root()).ok());
  EXPECT_EQ((*store)->record_count(), 5000u);
  // Spot-check lookups after evictions.
  auto nodes = ruidx::testing::AllNodes(doc->root());
  for (size_t i = 0; i < nodes.size(); i += 331) {
    auto record = (*store)->Get(scheme.label(nodes[i]));
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(record->name, nodes[i]->name());
  }
}

// An identifier sorts by area first — (global, local, flag) — and a
// preorder walk returns from a child area, whose global index is larger, to
// its parent's. Document order is therefore not identifier order on any
// multi-area document, and the bulk load must not depend on it. About 15k
// nodes in well over a thousand areas under the default partitioning.
std::unique_ptr<xml::Document> ManyAreaXmark() {
  xml::XmarkConfig config;
  config.items = 666;
  config.people = 500;
  config.open_auctions = 400;
  config.closed_auctions = 250;
  config.categories = 102;
  config.seed = 7;
  return xml::GenerateXmarkLike(config);
}

ElementRecord RecordOf(const core::Ruid2Scheme& scheme, xml::Node* root,
                       xml::Node* n) {
  ElementRecord record;
  record.id = scheme.label(n);
  record.parent_id = n == root ? record.id : scheme.label(n->parent());
  record.node_type = static_cast<uint8_t>(n->type());
  record.name = n->name();
  if (!n->is_element()) record.value = n->value();
  return record;
}

std::string Describe(const ElementRecord& r) {
  return r.id.ToString() + " <- " + r.parent_id.ToString() + " " +
         std::to_string(r.node_type) + " " + r.name + "=" + r.value + " @" +
         std::to_string(r.path_term);
}

struct StoreContents {
  std::vector<std::string> records;  // ScanAll, key order
  std::vector<std::pair<uint64_t, std::string>> name_postings;
  std::vector<std::pair<uint64_t, std::string>> path_postings;
};

StoreContents ContentsOf(ElementStore* store) {
  StoreContents out;
  EXPECT_TRUE(store
                  ->ScanAll([&](const BPlusTree::Key& key,
                                const ElementRecord& record) {
                    EXPECT_EQ(DecodeIdKey(key), record.id);
                    out.records.push_back(Describe(record));
                    return true;
                  })
                  .ok());
  // Heap locations depend on how index pages interleave with heap pages,
  // so postings compare by (term, id) only.
  EXPECT_TRUE(store
                  ->ScanNamePostings([&](uint64_t term, const core::Ruid2Id& id,
                                         uint64_t) {
                    out.name_postings.emplace_back(term, id.ToString());
                    return true;
                  })
                  .ok());
  EXPECT_TRUE(store
                  ->ScanPathPostings([&](uint64_t term, const core::Ruid2Id& id,
                                         uint64_t) {
                    out.path_postings.emplace_back(term, id.ToString());
                    return true;
                  })
                  .ok());
  return out;
}

TEST(ElementStoreBulkLoadTest, MatchesPutLoopOnManyAreaDocument) {
  auto doc = ManyAreaXmark();
  core::Ruid2Scheme scheme;
  scheme.Build(doc->root());
  std::vector<xml::Node*> nodes = ruidx::testing::AllNodes(doc->root());
  size_t order_breaks = 0;
  for (size_t i = 1; i < nodes.size(); ++i) {
    auto prev = EncodeIdKey(scheme.label(nodes[i - 1]));
    auto cur = EncodeIdKey(scheme.label(nodes[i]));
    ASSERT_TRUE(prev.ok() && cur.ok());
    if (!(*prev < *cur)) ++order_breaks;
  }
  ASSERT_GT(order_breaks, 100u) << "the document must span many areas";

  std::string bulk_path = ::testing::TempDir() + "/ruidx_bulk_built.db";
  std::string put_path = ::testing::TempDir() + "/ruidx_put_built.db";
  for (const std::string& path : {bulk_path, put_path}) {
    std::remove(path.c_str());
    std::remove((path + ".wal").c_str());
  }
  auto bulk = ElementStore::Create(bulk_path, 32);
  auto put = ElementStore::Create(put_path, 32);
  ASSERT_TRUE(bulk.ok() && put.ok());
  ASSERT_TRUE((*bulk)->BulkLoad(scheme, doc->root()).ok());
  // The reference: one Put per node in document order, path terms left for
  // Put to derive from the already stored parent.
  for (xml::Node* n : nodes) {
    ASSERT_TRUE((*put)->Put(RecordOf(scheme, doc->root(), n)).ok());
  }
  ASSERT_TRUE((*bulk)->Flush().ok());
  ASSERT_TRUE((*put)->Flush().ok());

  StoreContents bulk_contents = ContentsOf(bulk->get());
  StoreContents put_contents = ContentsOf(put->get());
  EXPECT_EQ(bulk_contents.records.size(), nodes.size());
  EXPECT_EQ(bulk_contents.records, put_contents.records);
  EXPECT_EQ(bulk_contents.name_postings, put_contents.name_postings);
  EXPECT_EQ(bulk_contents.path_postings, put_contents.path_postings);
  for (ElementStore* store : {bulk->get(), put->get()}) {
    Status check = analysis::CheckStoreInvariants(scheme, doc->root(), store);
    EXPECT_TRUE(check.ok()) << check.ToString();
  }

  // Bottom-up leaves at 7/8 fill against leaves split half-and-half.
  uint64_t bulk_pages = std::filesystem::file_size(bulk_path) / kPageSize;
  uint64_t put_pages = std::filesystem::file_size(put_path) / kPageSize;
  EXPECT_LE(bulk_pages * 10, put_pages * 8)
      << bulk_pages << " bulk-built pages vs " << put_pages << " put-built";
  bulk->reset();
  put->reset();
  for (const std::string& path : {bulk_path, put_path}) {
    std::remove(path.c_str());
    std::remove((path + ".wal").c_str());
  }
}

TEST(ElementStoreBulkLoadTest, UniformLeavesHoldAtLeast112Entries) {
  // Leaf fan-out floor for the v2 leaf codec: a bulk-loaded 20000-node
  // uniform store averages at least 112 entries per leaf page across the
  // primary and both posting trees — 1.3x the 85.8 that 33-byte fixed
  // slots fit into the 7/8-full bulk-load budget.
  auto doc = xml::GenerateUniformTree(20000, 4);
  core::PartitionOptions areas;
  areas.max_area_nodes = 64;
  areas.max_area_depth = 4;
  core::Ruid2Scheme scheme(areas);
  scheme.Build(doc->root());
  auto store = ElementStore::Create("");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(scheme, doc->root()).ok());
  BPlusTree::LeafStats stats;
  ASSERT_TRUE((*store)->ComputeLeafStats(&stats).ok());
  ASSERT_GT(stats.leaf_pages, 0u);
  double fanout = static_cast<double>(stats.entries) /
                  static_cast<double>(stats.leaf_pages);
  EXPECT_GE(fanout, 112.0) << stats.entries << " entries in "
                           << stats.leaf_pages << " leaf pages";
}

TEST(ElementStoreBulkLoadTest, FailedBatchLeavesStoreEmpty) {
  auto doc = ManyAreaXmark();
  auto created = ElementStore::Create("", 32);
  ASSERT_TRUE(created.ok());
  ElementStore* store = created->get();
  const uint64_t allocations = store->pager_stats().allocations;
  auto expect_empty = [&] {
    EXPECT_EQ(store->record_count(), 0u);
    EXPECT_EQ(store->secondary_stats().name_postings, 0u);
    EXPECT_EQ(store->secondary_stats().path_postings, 0u);
    EXPECT_EQ(store->pager_stats().allocations, allocations)
        << "a refused batch must not append to the heap";
  };

  // Last in document order: a text node too large for a heap page.
  xml::Node* big = doc->CreateText(std::string(kPageSize, 'x'));
  ASSERT_TRUE(doc->AppendChild(doc->root(), big).ok());
  {
    core::Ruid2Scheme scheme;
    scheme.Build(doc->root());
    Status status = store->BulkLoad(scheme, doc->root());
    EXPECT_TRUE(status.IsCapacityExceeded()) << status.ToString();
    expect_empty();
  }
  ASSERT_TRUE(doc->RemoveSubtree(big).ok());

  // Two nodes sharing one identifier, the second of them last.
  std::vector<xml::Node*> nodes = ruidx::testing::AllNodes(doc->root());
  {
    core::Ruid2Scheme scheme;
    scheme.Build(doc->root());
    core::Ruid2SchemeTestPeer::DuplicateLabel(&scheme, nodes[nodes.size() / 2],
                                              nodes.back());
    Status status = store->BulkLoad(scheme, doc->root());
    EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
    expect_empty();
  }

  // The store is still empty, so the valid load takes the batch path.
  core::Ruid2Scheme scheme;
  scheme.Build(doc->root());
  ASSERT_TRUE(store->BulkLoad(scheme, doc->root()).ok());
  EXPECT_EQ(store->record_count(), nodes.size());
  Status check = analysis::CheckStoreInvariants(scheme, doc->root(), store);
  EXPECT_TRUE(check.ok()) << check.ToString();
}

// Sec. 4's by-name table selection is one key range of the name-posting
// tree: it reads that range and the matching records, not the whole store.
TEST(ElementStoreSelectionTest, NamePostingScanTouchesFewerPagesThanFullScan) {
  auto doc = xml::GenerateDblpLike(120);
  core::PartitionOptions options;
  options.max_area_nodes = 24;
  options.max_area_depth = 3;
  core::Ruid2Scheme scheme(options);
  scheme.Build(doc->root());
  auto store = ElementStore::Create("");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(scheme, doc->root()).ok());
  ASSERT_TRUE((*store)->Flush().ok());

  std::vector<std::string> expected;
  for (xml::Node* n : ruidx::testing::AllNodes(doc->root())) {
    if (n->name() == "year") expected.push_back(scheme.label(n).ToString());
  }
  ASSERT_FALSE(expected.empty());

  (*store)->ResetStats();
  std::vector<std::string> years;
  ASSERT_TRUE((*store)
                  ->ScanNameTerm("year",
                                 [&](const ElementRecord& record) {
                                   years.push_back(record.id.ToString());
                                   return true;
                                 })
                  .ok());
  const uint64_t selective_io = (*store)->logical_page_accesses();

  (*store)->ResetStats();
  uint64_t all = 0;
  ASSERT_TRUE((*store)
                  ->ScanAll([&](const BPlusTree::Key&, const ElementRecord&) {
                    ++all;
                    return true;
                  })
                  .ok());
  const uint64_t full_io = (*store)->logical_page_accesses();

  std::sort(expected.begin(), expected.end());
  std::sort(years.begin(), years.end());
  EXPECT_EQ(years, expected);
  EXPECT_EQ(all, (*store)->record_count());
  EXPECT_LT(selective_io, full_io / 2)
      << selective_io << " pages for the selection, " << full_io
      << " for the full scan";
}

// A commit writes back the pages its transaction dirtied: for one fresh
// record, a heap page, one leaf of each of the three trees and the meta
// page, plus the occasional split. Nothing else may grow with the store.
TEST(ElementStoreCommitTest, FreshPutCommitWritesAFewPages) {
  xml::XmarkConfig config;
  config.items *= 10;
  config.people *= 10;
  config.open_auctions *= 10;
  config.closed_auctions *= 10;
  config.categories *= 10;
  auto doc = xml::GenerateXmarkLike(config);
  core::Ruid2Scheme scheme;
  scheme.Build(doc->root());
  ASSERT_GT(scheme.label_count(), 20000u);
  auto created = ElementStore::Create("", 256);
  ASSERT_TRUE(created.ok());
  ElementStore* store = created->get();
  ASSERT_TRUE(store->BulkLoad(scheme, doc->root()).ok());
  ASSERT_TRUE(store->Flush().ok());

  std::vector<xml::Node*> elements;
  for (xml::Node* n : ruidx::testing::AllNodes(doc->root())) {
    if (n->is_element()) elements.push_back(n);
  }
  constexpr uint64_t kCommits = 50;
  const uint64_t before = store->pager_stats().physical_writes;
  for (uint64_t i = 0; i < kCommits; ++i) {
    // Spread over the document, so the keys land on different leaves.
    const core::Ruid2Id& parent =
        scheme.label(elements[(i * 7919) % elements.size()]);
    ElementRecord record;
    record.id = core::Ruid2Id{parent.global, BigUint(1000000 + i), false};
    record.parent_id = parent;
    record.node_type = static_cast<uint8_t>(xml::NodeType::kElement);
    record.name = "fresh";
    ASSERT_TRUE(store->Put(record).ok());
    ASSERT_TRUE(store->Flush().ok());
  }
  const double per_commit =
      static_cast<double>(store->pager_stats().physical_writes - before) /
      kCommits;
  EXPECT_LE(per_commit, 6.0) << per_commit << " page writes per commit";
}

}  // namespace
}  // namespace storage
}  // namespace ruidx
