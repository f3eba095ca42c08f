// Randomized update storm: seeded batches of insertions and deletions
// against Ruid2Scheme (incremental paths and the external-mutation repair
// path), with the full invariant verifier after every batch and the packed
// fast path toggled both ways. The multilevel scheme gets the same storm
// through its rebuild path.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/invariant_checker.h"
#include "core/packed_ruid2_id.h"
#include "core/ruid2.h"
#include "core/ruidm.h"
#include "storage/element_store.h"
#include "testutil.h"
#include "util/random.h"
#include "xml/dom.h"
#include "xml/generator.h"

namespace ruidx {
namespace {

using analysis::CheckDocumentInvariants;
using analysis::CheckOptions;
using analysis::CheckReport;

/// Elements currently attached under root (root excluded) — insertion
/// parents and deletion victims are drawn from this set.
std::vector<xml::Node*> AttachedElements(xml::Node* root) {
  std::vector<xml::Node*> out;
  xml::PreorderTraverse(root, [&](xml::Node* n, int depth) {
    if (depth > 0 && n->is_element()) out.push_back(n);
    return true;
  });
  return out;
}

CheckOptions StormOptions() {
  CheckOptions options;
  // Deletions may legally shrink the source fan-out below the frame's.
  options.check_frame_bound = false;
  // Keep per-batch cost bounded; the storm runs the verifier dozens of times.
  options.order_samples = 96;
  options.chain_samples = 48;
  return options;
}

void RunStorm(uint64_t seed, bool packed_enabled) {
  const bool saved = core::PackedFastPathEnabled();
  core::SetPackedFastPathEnabled(packed_enabled);

  xml::RandomTreeConfig config;
  config.node_budget = 220;
  config.max_fanout = 5;
  config.seed = seed;
  auto doc = xml::GenerateRandomTree(config);

  core::PartitionOptions part;
  part.max_area_nodes = 24;
  part.max_area_depth = 3;
  core::Ruid2Scheme scheme(part);
  scheme.Build(doc->root());

  CheckOptions options = StormOptions();
  options.rng_seed = seed ^ 0x5707;
  ASSERT_TRUE(CheckDocumentInvariants(scheme, doc->root(), options).ok());

  Rng rng(seed * 2654435761u + 17);
  uint64_t fresh_tag = 0;
  constexpr int kBatches = 12;
  for (int batch = 0; batch < kBatches; ++batch) {
    const uint64_t ops = 1 + rng.NextBounded(6);
    for (uint64_t op = 0; op < ops; ++op) {
      std::vector<xml::Node*> elements = AttachedElements(doc->root());
      const uint64_t roll = rng.NextBounded(10);
      if (roll < 6 || elements.empty()) {
        // Insert a small detached subtree at a random slot.
        xml::Node* parent = elements.empty()
                                ? doc->root()
                                : elements[rng.NextBounded(elements.size())];
        xml::Node* child = doc->CreateElement(
            "u" + std::to_string(fresh_tag++));
        if (rng.NextBool(0.5)) {
          ASSERT_TRUE(
              doc->AppendChild(child, doc->CreateText("storm")).ok());
        }
        size_t pos = static_cast<size_t>(
            rng.NextBounded(parent->fanout() + 1));  // NOLINT(raw-id-arithmetic)
        auto report = scheme.InsertAndRelabel(doc.get(), parent, pos, child);
        ASSERT_TRUE(report.ok()) << report.status().ToString();
      } else if (roll < 9) {
        // Delete a random subtree (never the root).
        xml::Node* victim = elements[rng.NextBounded(elements.size())];
        auto report = scheme.RemoveAndRelabel(doc.get(), victim);
        ASSERT_TRUE(report.ok()) << report.status().ToString();
      } else {
        // External mutation the scheme does not see, then the repair path.
        xml::Node* parent = elements[rng.NextBounded(elements.size())];
        xml::Node* child = doc->CreateElement(
            "x" + std::to_string(fresh_tag++));
        ASSERT_TRUE(doc->AppendChild(parent, child).ok());
        scheme.RelabelAndCount(doc->root());
      }
    }
    options.rng_seed = seed + static_cast<uint64_t>(batch);
    CheckReport report;
    Status st =
        CheckDocumentInvariants(scheme, doc->root(), options, &report);
    ASSERT_TRUE(st.ok()) << "seed=" << seed << " packed=" << packed_enabled
                         << " batch=" << batch << ": " << st.ToString();
    ASSERT_EQ(report.nodes_checked, scheme.label_count());

    // Every few batches, materialize the relabeled document into a store
    // and run the storage battery too — secondary-index coverage and
    // posting order included (bounded: a fresh bulk load plus the on-disk
    // checks cost more than the in-memory verifier).
    if (batch % 4 == 3 || batch == kBatches - 1) {
      auto store = storage::ElementStore::Create("");
      ASSERT_TRUE(store.ok());
      ASSERT_TRUE((*store)->BulkLoad(scheme, doc->root()).ok());
      Status store_st = analysis::CheckStoreInvariants(
          scheme, doc->root(), store->get(), options);
      ASSERT_TRUE(store_st.ok())
          << "seed=" << seed << " batch=" << batch << ": "
          << store_st.ToString();
    }
  }

  core::SetPackedFastPathEnabled(saved);
}

TEST(UpdateStormTest, Ruid2SurvivesStormPackedOn) {
  for (uint64_t seed : {1u, 12u, 123u}) RunStorm(seed, /*packed=*/true);
}

TEST(UpdateStormTest, Ruid2SurvivesStormPackedOff) {
  for (uint64_t seed : {7u, 77u}) RunStorm(seed, /*packed=*/false);
}

TEST(UpdateStormTest, RuidMSurvivesRebuildStorm) {
  xml::RandomTreeConfig config;
  config.node_budget = 160;
  config.max_fanout = 4;
  config.seed = 99;
  auto doc = xml::GenerateRandomTree(config);

  core::PartitionOptions part;
  part.max_area_nodes = 20;
  core::RuidMScheme scheme(3, part);
  ASSERT_TRUE(scheme.Build(doc->root()).ok());
  ASSERT_TRUE(analysis::CheckRuidMInvariants(scheme, doc->root()).ok());

  Rng rng(424242);
  uint64_t fresh_tag = 0;
  for (int round = 0; round < 6; ++round) {
    std::vector<xml::Node*> elements = AttachedElements(doc->root());
    ASSERT_FALSE(elements.empty());
    if (rng.NextBool(0.6)) {
      xml::Node* parent = elements[rng.NextBounded(elements.size())];
      ASSERT_TRUE(
          doc->AppendChild(parent, doc->CreateElement(
                                       "m" + std::to_string(fresh_tag++)))
              .ok());
    } else {
      ASSERT_TRUE(
          doc->RemoveSubtree(elements[rng.NextBounded(elements.size())]).ok());
    }
    // Multilevel updates go through a rebuild in this codebase.
    ASSERT_TRUE(scheme.Build(doc->root()).ok());
    Status st = analysis::CheckRuidMInvariants(scheme, doc->root());
    ASSERT_TRUE(st.ok()) << "round=" << round << ": " << st.ToString();
  }
}

}  // namespace
}  // namespace ruidx
