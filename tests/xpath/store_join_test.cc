// The store joins (StructuralJoinRuidFromStore / FromSnapshot) take their
// identifiers from the name-posting keys: they read posting pages and no
// heap record, guard against term-hash collisions by the name of the node
// an identifier resolves to, and answer exactly like the in-memory join —
// order included — with live and snapshot readers running concurrently.
#include "xpath/structural_join.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/packed_ruid2_id.h"
#include "storage/element_store.h"
#include "testutil.h"
#include "xml/generator.h"
#include "xpath/name_index.h"

namespace ruidx {
namespace xpath {
namespace {

struct JoinCase {
  const char* ancestor;
  const char* descendant;
};

constexpr JoinCase kCases[] = {{"person", "name"},
                               {"open_auction", "increase"},
                               {"category", "category"},
                               {"site", "item"}};

/// An XMark-like document under small areas (a deep frame), bulk-loaded
/// into a store many times larger than its buffer pool.
class StoreJoinTest : public ::testing::Test {
 protected:
  static constexpr size_t kPoolPages = 64;

  void SetUp() override {
    xml::XmarkConfig config;
    config.items = 600;
    config.people = 400;
    config.open_auctions = 300;
    config.categories = 150;
    doc_ = xml::GenerateXmarkLike(config);
    core::PartitionOptions options;
    options.max_area_nodes = 64;
    options.max_area_depth = 4;
    scheme_ = std::make_unique<core::Ruid2Scheme>(options);
    scheme_->Build(doc_->root());
    index_ = std::make_unique<NameIndex>(doc_->root());
    auto store = storage::ElementStore::Create("", kPoolPages);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    store_ = std::move(*store);
    ASSERT_TRUE(store_->BulkLoad(*scheme_, doc_->root()).ok());
    ASSERT_TRUE(store_->Flush().ok());
  }

  /// Name postings of `name`, collision candidates included.
  size_t Postings(const char* name) {
    storage::PostingIds ids;
    EXPECT_TRUE(store_->ScanNameIds(name, &ids).ok());
    return ids.packed.size() + ids.wide.size();
  }

  std::unique_ptr<xml::Document> doc_;
  std::unique_ptr<core::Ruid2Scheme> scheme_;
  std::unique_ptr<NameIndex> index_;
  std::unique_ptr<storage::ElementStore> store_;
};

TEST_F(StoreJoinTest, JoinsReadPostingPagesOnly) {
  ASSERT_GT(store_->pager_stats().allocations, 4 * kPoolPages)
      << "the store must be several times larger than its pool";
  for (const JoinCase& c : kCases) {
    const size_t postings = Postings(c.ancestor) + Postings(c.descendant);
    ASSERT_GT(postings, 100u) << c.ancestor << "//" << c.descendant;
    JoinResult expected =
        StructuralJoinRuidByName(*scheme_, *index_, c.ancestor, c.descendant);

    // Live: every page access goes through the pool.
    uint64_t before = store_->logical_page_accesses();
    auto live = StructuralJoinRuidFromStore(*scheme_, store_.get(),
                                            c.ancestor, c.descendant);
    const uint64_t live_accesses = store_->logical_page_accesses() - before;
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    EXPECT_EQ(*live, expected) << c.ancestor << "//" << c.descendant;
    EXPECT_LT(live_accesses * 8, postings)
        << c.ancestor << "//" << c.descendant << ": " << live_accesses
        << " page accesses for " << postings << " postings";

    // Snapshot: page fetches through the view, which bypass the pool.
    auto snap = store_->OpenSnapshot();
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    before = (*snap)->logical_page_accesses();
    auto snapped = StructuralJoinRuidFromSnapshot(*scheme_, snap->get(),
                                                  c.ancestor, c.descendant);
    const uint64_t snap_accesses = (*snap)->logical_page_accesses() - before;
    ASSERT_TRUE(snapped.ok()) << snapped.status().ToString();
    EXPECT_EQ(*snapped, expected) << c.ancestor << "//" << c.descendant;
    EXPECT_LT(snap_accesses * 8, postings)
        << c.ancestor << "//" << c.descendant << ": " << snap_accesses
        << " snapshot page accesses for " << postings << " postings";
  }
}

TEST_F(StoreJoinTest, ConcurrentLiveAndSnapshotJoinsMatchTheInMemoryJoin) {
  std::vector<JoinResult> expected;
  for (const JoinCase& c : kCases) {
    expected.push_back(
        StructuralJoinRuidByName(*scheme_, *index_, c.ancestor, c.descendant));
    ASSERT_FALSE(expected.back().empty()) << c.ancestor << "//" << c.descendant;
  }
  constexpr int kRounds = 20;
  std::atomic<int> errors{0};
  std::atomic<int> mismatches{0};
  std::atomic<int> joins{0};
  auto check = [&](const Result<JoinResult>& got, size_t i) {
    ++joins;
    if (!got.ok()) {
      ++errors;
    } else if (*got != expected[i]) {
      ++mismatches;
    }
  };
  std::thread live([&] {
    for (int round = 0; round < kRounds; ++round) {
      for (size_t i = 0; i < std::size(kCases); ++i) {
        check(StructuralJoinRuidFromStore(*scheme_, store_.get(),
                                          kCases[i].ancestor,
                                          kCases[i].descendant),
              i);
      }
    }
  });
  std::thread snapshot([&] {
    // One view per reader thread (StoreSnapshot is not thread-safe); a
    // fresh one every round.
    for (int round = 0; round < kRounds; ++round) {
      auto snap = store_->OpenSnapshot();
      if (!snap.ok()) {
        ++errors;
        continue;
      }
      for (size_t i = 0; i < std::size(kCases); ++i) {
        check(StructuralJoinRuidFromSnapshot(*scheme_, snap->get(),
                                             kCases[i].ancestor,
                                             kCases[i].descendant),
              i);
      }
    }
  });
  live.join();
  snapshot.join();
  EXPECT_EQ(joins.load(), 2 * kRounds * static_cast<int>(std::size(kCases)));
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

// A 64-bit term collision puts a posting under one name's term whose
// identifier belongs to a node of another name. Rewriting one <book>'s
// record as a <title> produces exactly that posting; the joins must drop
// it because the node it resolves to is not a <title>.
TEST(StoreJoinGuardTest, PostingOfAnotherNameIsDroppedByTheResolvedNode) {
  auto doc = ruidx::testing::MustParse(
      "<lib><shelf><book><title/></book><book><title/></book></shelf>"
      "<shelf><book><title/></book></shelf><title/></lib>");
  core::Ruid2Scheme scheme;
  scheme.Build(doc->root());
  NameIndex index(doc->root());
  auto store = storage::ElementStore::Create("");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(scheme, doc->root()).ok());

  xml::Node* book = index.Lookup("book").front();
  auto record = (*store)->Get(scheme.label(book));
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  record->name = "title";
  ASSERT_TRUE((*store)->Put(*record).ok());
  ASSERT_TRUE((*store)->Flush().ok());

  JoinResult expected = StructuralJoinRuidByName(scheme, index, "shelf",
                                                 "title");
  ASSERT_EQ(expected.size(), 3u);
  auto live = StructuralJoinRuidFromStore(scheme, store->get(), "shelf",
                                          "title");
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  EXPECT_EQ(*live, expected);
  auto snap = (*store)->OpenSnapshot();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  auto snapped = StructuralJoinRuidFromSnapshot(scheme, snap->get(), "shelf",
                                                "title");
  ASSERT_TRUE(snapped.ok()) << snapped.status().ToString();
  EXPECT_EQ(*snapped, expected);
  for (const auto& [a, d] : *snapped) EXPECT_EQ(d->name(), "title");
}

// One area holding a depth-50 spine of fan-out 3: local indices pass 2^63
// about 40 levels down, so those identifiers do not pack. Their postings
// take the BigUint join, which must answer like the in-memory join.
TEST(StoreJoinFallbackTest, IdentifiersOutsideThePackedRangeFallBack) {
  xml::DeepTreeConfig config;
  config.depth = 50;
  config.siblings_per_level = 2;
  auto doc = xml::GenerateDeepTree(config);
  core::PartitionOptions one_area;
  one_area.max_area_nodes = 1000;
  one_area.max_area_depth = 1000;
  core::Ruid2Scheme scheme(one_area);
  scheme.Build(doc->root());
  ASSERT_EQ(scheme.ktable().size(), 1u);
  size_t wide = 0;
  scheme.ForEachLabeled([&](const xml::Node*, const core::Ruid2Id& id) {
    core::PackedRuid2Id packed;
    if (!core::PackRuid2Id(id, &packed)) ++wide;
  });
  ASSERT_GT(wide, 0u) << "no identifier leaves the packed range";
  NameIndex index(doc->root());
  auto store = storage::ElementStore::Create("");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(scheme, doc->root()).ok());
  ASSERT_TRUE((*store)->Flush().ok());

  for (const char* descendant : {"para", "section"}) {
    JoinResult expected =
        StructuralJoinRuidByName(scheme, index, "section", descendant);
    ASSERT_FALSE(expected.empty());
    auto live = StructuralJoinRuidFromStore(scheme, store->get(), "section",
                                            descendant);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    EXPECT_EQ(*live, expected) << "section//" << descendant;
    auto snap = (*store)->OpenSnapshot();
    ASSERT_TRUE(snap.ok());
    auto snapped = StructuralJoinRuidFromSnapshot(scheme, snap->get(),
                                                  "section", descendant);
    ASSERT_TRUE(snapped.ok()) << snapped.status().ToString();
    EXPECT_EQ(*snapped, expected) << "section//" << descendant;
  }
}

}  // namespace
}  // namespace xpath
}  // namespace ruidx
