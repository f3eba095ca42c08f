// The persistent secondary-index subsystem: posting key order, name/path
// index maintenance across Put/Remove/overwrite, and persistence across
// reopen.
#include "storage/secondary_index.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "storage/element_store.h"
#include "testutil.h"

namespace ruidx {
namespace storage {
namespace {

core::Ruid2Id MakeId(uint64_t global, uint64_t local,
                     bool area_root = false) {
  core::Ruid2Id id;
  id.global = BigUint(global);
  id.local = BigUint(local);
  id.is_area_root = area_root;
  return id;
}

ElementRecord MakeRecord(uint64_t i, const std::string& name,
                         const std::string& value = "") {
  ElementRecord record;
  record.id = MakeId(1, 2 + i);
  record.parent_id = record.id;
  record.node_type = 1;
  record.name = name;
  record.value = value;
  return record;
}

// --- Posting keys -------------------------------------------------------------

TEST(PostingKeyTest, OrderIsTermThenDocumentOrder) {
  // Within one term, posting keys must sort exactly like primary id keys.
  std::vector<core::Ruid2Id> ids = {MakeId(1, 1, true), MakeId(1, 2),
                                    MakeId(1, 10), MakeId(2, 1, true),
                                    MakeId(2, 3)};
  std::vector<BPlusTree::Key> keys;
  for (const auto& id : ids) {
    auto key = EncodePostingKey(42, id);
    ASSERT_TRUE(key.ok());
    keys.push_back(*key);
  }
  for (size_t i = 1; i < keys.size(); ++i) {
    EXPECT_TRUE(keys[i - 1] < keys[i]) << i;
  }
  // A smaller term sorts before any id under a larger term.
  auto small_term = EncodePostingKey(41, MakeId(999, 999));
  ASSERT_TRUE(small_term.ok());
  EXPECT_TRUE(*small_term < keys.front());
  // Round trip.
  EXPECT_EQ(DecodePostingTerm(keys[0]), 42u);
  EXPECT_EQ(DecodePostingId(keys[0]), ids[0]);
}

TEST(PostingKeyTest, RejectsOversizedComponents) {
  core::Ruid2Id id;
  id.global = BigUint(1);
  for (int i = 0; i < 13; ++i) id.global = id.global * BigUint(256);
  id.local = BigUint(1);
  EXPECT_FALSE(EncodePostingKey(1, id).ok());
}

TEST(PathTermTest, OrderSensitiveAndSeedDistinct) {
  uint64_t ab = ExtendPathTerm(RootPathTerm("a"), "b");
  uint64_t ba = ExtendPathTerm(RootPathTerm("b"), "a");
  EXPECT_NE(ab, ba);
  // Path term of a one-component path differs from the bare name term.
  EXPECT_NE(RootPathTerm("a"), HashNameTerm("a"));
}

// --- ElementStore maintenance -------------------------------------------------

TEST(ElementStoreIndexTest, NameScanSeesPutsAndRemoves) {
  auto store = ElementStore::Create("");
  ASSERT_TRUE(store.ok());
  for (uint64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE((*store)->Put(MakeRecord(i, i % 2 ? "odd" : "even")).ok());
  }
  size_t odd = 0;
  ASSERT_TRUE((*store)
                  ->ScanNameTerm("odd",
                                 [&](const ElementRecord& r) {
                                   EXPECT_EQ(r.name, "odd");
                                   ++odd;
                                   return true;
                                 })
                  .ok());
  EXPECT_EQ(odd, 25u);

  // Removes drop postings.
  for (uint64_t i = 1; i < 50; i += 2) {
    ASSERT_TRUE((*store)->Remove(MakeId(1, 2 + i)).ok());
  }
  odd = 0;
  ASSERT_TRUE((*store)
                  ->ScanNameTerm("odd", [&](const ElementRecord&) {
                    ++odd;
                    return true;
                  })
                  .ok());
  EXPECT_EQ(odd, 0u);
  EXPECT_TRUE((*store)->VerifySecondaryIndexes().ok());
}

TEST(ElementStoreIndexTest, OverwriteRetargetsPostings) {
  auto store = ElementStore::Create("");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put(MakeRecord(0, "alpha", "v0")).ok());
  // Same id, new name: the old posting must disappear.
  ASSERT_TRUE((*store)->Put(MakeRecord(0, "beta", "v1")).ok());
  size_t alpha = 0, beta = 0;
  ASSERT_TRUE((*store)
                  ->ScanNameTerm("alpha", [&](const ElementRecord&) {
                    ++alpha;
                    return true;
                  })
                  .ok());
  ASSERT_TRUE((*store)
                  ->ScanNameTerm("beta",
                                 [&](const ElementRecord& r) {
                                   EXPECT_EQ(r.value, "v1");
                                   ++beta;
                                   return true;
                                 })
                  .ok());
  EXPECT_EQ(alpha, 0u);
  EXPECT_EQ(beta, 1u);
  // Same name overwrite keeps exactly one posting, pointing at fresh data.
  ASSERT_TRUE((*store)->Put(MakeRecord(0, "beta", "v2")).ok());
  beta = 0;
  std::string value;
  ASSERT_TRUE((*store)
                  ->ScanNameTerm("beta",
                                 [&](const ElementRecord& r) {
                                   value = r.value;
                                   ++beta;
                                   return true;
                                 })
                  .ok());
  EXPECT_EQ(beta, 1u);
  EXPECT_EQ(value, "v2");
  EXPECT_TRUE((*store)->VerifySecondaryIndexes().ok());
}

TEST(ElementStoreIndexTest, BulkLoadBuildsIndexesAndDocumentOrder) {
  auto doc = ruidx::testing::MustParse(
      "<a><b><c/><c/></b><b><c/></b><d/></a>");
  core::Ruid2Scheme scheme;
  scheme.Build(doc->root());
  auto store = ElementStore::Create("");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(scheme, doc->root()).ok());
  EXPECT_TRUE((*store)->VerifySecondaryIndexes().ok());

  // Name scan yields document order (c under first b before second b's c).
  std::vector<core::Ruid2Id> cs;
  ASSERT_TRUE((*store)
                  ->ScanNameTerm("c",
                                 [&](const ElementRecord& r) {
                                   cs.push_back(r.id);
                                   return true;
                                 })
                  .ok());
  ASSERT_EQ(cs.size(), 3u);
  EXPECT_LT(scheme.CompareIds(cs[0], cs[1]), 0);
  EXPECT_LT(scheme.CompareIds(cs[1], cs[2]), 0);

  // Path scan: /a/b/c hits exactly the three c's; /a/d exactly one.
  uint64_t abc = ExtendPathTerm(ExtendPathTerm(RootPathTerm("a"), "b"), "c");
  size_t hits = 0;
  ASSERT_TRUE((*store)
                  ->ScanPathTerm(abc,
                                 [&](const ElementRecord& r) {
                                   EXPECT_EQ(r.name, "c");
                                   ++hits;
                                   return true;
                                 })
                  .ok());
  EXPECT_EQ(hits, 3u);
  hits = 0;
  ASSERT_TRUE((*store)
                  ->ScanPathTerm(ExtendPathTerm(RootPathTerm("a"), "d"),
                                 [&](const ElementRecord&) {
                                   ++hits;
                                   return true;
                                 })
                  .ok());
  EXPECT_EQ(hits, 1u);
}

TEST(ElementStoreIndexTest, IndexesSurviveReopenAndRecovery) {
  std::string path = ::testing::TempDir() + "/ruidx_secondary_reopen.db";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  {
    auto store = ElementStore::Create(path);
    ASSERT_TRUE(store.ok());
    for (uint64_t i = 0; i < 120; ++i) {
      ASSERT_TRUE((*store)->Put(MakeRecord(i, "tag", "v")).ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());
    // Uncommitted tail the reopen must roll back: the destructor's final
    // commit is made to fail (a clean shutdown would commit it).
    ASSERT_TRUE((*store)->Put(MakeRecord(500, "tag", "lost")).ok());
    (*store)->InjectFaultAfter(0);
  }
  auto reopened = ElementStore::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE((*reopened)->VerifyOnDisk().ok());
  EXPECT_TRUE((*reopened)->VerifySecondaryIndexes().ok());
  size_t tags = 0;
  ASSERT_TRUE((*reopened)
                  ->ScanNameTerm("tag", [&](const ElementRecord&) {
                    ++tags;
                    return true;
                  })
                  .ok());
  EXPECT_EQ(tags, 120u);
  // Every committed id is found; the rolled-back one and a never-stored one
  // are not.
  for (uint64_t i = 0; i < 120; ++i) {
    auto exists = (*reopened)->Exists(MakeId(1, 2 + i));
    ASSERT_TRUE(exists.ok());
    EXPECT_TRUE(*exists) << i;
  }
  for (const core::Ruid2Id& missing : {MakeId(1, 502), MakeId(77, 999)}) {
    auto exists = (*reopened)->Exists(missing);
    ASSERT_TRUE(exists.ok());
    EXPECT_FALSE(*exists) << missing.ToString();
  }
  SecondaryIndexStats stats = (*reopened)->secondary_stats();
  EXPECT_EQ(stats.name_postings, 120u);
  EXPECT_EQ(stats.path_postings, 120u);
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

}  // namespace
}  // namespace storage
}  // namespace ruidx
