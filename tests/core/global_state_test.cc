#include "core/global_state.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "core/ruid2.h"
#include "testutil.h"
#include "xml/generator.h"

namespace ruidx {
namespace core {
namespace {

TEST(GlobalStateTest, RoundTripInMemory) {
  KTable k;
  k.Upsert({BigUint(1), BigUint(1), 3});
  k.Upsert({BigUint(2), BigUint(2), 2});
  k.Upsert({BigUint::Pow(BigUint(2), 90), BigUint(7), 11});
  std::string blob = SerializeGlobalState(4, k);
  auto state = DeserializeGlobalState(blob);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_EQ(state->kappa, 4u);
  ASSERT_EQ(state->ktable.size(), 3u);
  EXPECT_EQ(*state->ktable.Find(BigUint(2)), (KRow{BigUint(2), BigUint(2), 2}));
  ASSERT_NE(state->ktable.Find(BigUint::Pow(BigUint(2), 90)), nullptr);
  EXPECT_EQ(state->ktable.Find(BigUint::Pow(BigUint(2), 90))->fanout, 11u);
}

TEST(GlobalStateTest, RejectsGarbageAndTruncation) {
  EXPECT_FALSE(DeserializeGlobalState("").ok());
  EXPECT_FALSE(DeserializeGlobalState("nope").ok());
  KTable k;
  k.Upsert({BigUint(5), BigUint(2), 3});
  std::string blob = SerializeGlobalState(2, k);
  EXPECT_FALSE(DeserializeGlobalState(blob.substr(0, blob.size() - 3)).ok());
  EXPECT_FALSE(DeserializeGlobalState(blob + "x").ok());
}

TEST(GlobalStateTest, ZeroValuedComponentsSurvive) {
  KTable k;
  k.Upsert({BigUint(1), BigUint(0), 1});  // zero-width BigUint payload
  std::string blob = SerializeGlobalState(1, k);
  auto state = DeserializeGlobalState(blob);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->ktable.Find(BigUint(1))->root_local, BigUint(0));
}

TEST(GlobalStateTest, LoadedStateAnswersRparent) {
  // Build a scheme, persist only (kappa, K), reload, and verify rparent on
  // the reloaded state matches the live scheme for every node — the
  // document itself is never consulted.
  auto doc = xml::GenerateUniformTree(500, 3);
  PartitionOptions options;
  options.max_area_nodes = 12;
  options.max_area_depth = 3;
  Ruid2Scheme scheme(options);
  scheme.Build(doc->root());

  std::string path = ::testing::TempDir() + "/ruidx_gstate_test.bin";
  ASSERT_TRUE(SaveGlobalState(scheme.kappa(), scheme.ktable(), path).ok());
  auto state = LoadGlobalState(path);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  std::remove(path.c_str());

  for (xml::Node* n : ruidx::testing::AllNodes(doc->root())) {
    if (n == doc->root()) continue;
    auto live = scheme.Parent(scheme.label(n));
    auto offline = RuidParent(scheme.label(n), state->kappa, state->ktable);
    ASSERT_TRUE(live.ok() && offline.ok());
    EXPECT_EQ(*live, *offline);
  }
}

TEST(GlobalStateTest, FileErrorsSurface) {
  EXPECT_TRUE(LoadGlobalState("/nonexistent/dir/x.bin").status().IsIOError());
}

}  // namespace
}  // namespace core
}  // namespace ruidx
