// Deep structural invariant verification — an fsck for ruid-labeled
// documents.
//
// Ruid2Scheme::Validate() asserts the core label/K-table contract from
// inside the scheme; this layer re-derives every paper-level invariant from
// the outside, across subsystems the scheme itself cannot see (storage key
// encoding, the packed fast path, the ancestor-path cache), and reports the
// first violation as Status::Corruption with a "[invariant-name]" prefix.
// DESIGN.md section "Invariant catalogue" maps each invariant back to its
// source in the paper (Defs. 1-4, Fig. 6, Sec. 2.1/2.3/3.2).
//
// Intended uses: the `ruidx_tool check` subcommand, post-update audits in
// property tests (the update-storm test runs the full battery after every
// batch), and corruption-injection tests that prove each check fires.
#ifndef RUIDX_ANALYSIS_INVARIANT_CHECKER_H_
#define RUIDX_ANALYSIS_INVARIANT_CHECKER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/ruid2.h"
#include "core/ruidm.h"
#include "util/result.h"
#include "xml/dom.h"

namespace ruidx {
namespace storage {
class ElementStore;
}  // namespace storage

namespace analysis {

struct CheckOptions {
  /// Number of node pairs sampled for the quadratic agreement checks
  /// (CompareIds vs DOM order, key byte order vs numeric order). When the
  /// document has few enough nodes, every pair is checked instead.
  uint64_t order_samples = 256;
  /// Number of nodes sampled for the per-node chain checks (ancestor-path
  /// cache vs fresh recomputation, packed vs BigUint agreement).
  uint64_t chain_samples = 128;
  /// Seed for the sampling Rng — fixed so a failing run is reproducible.
  uint64_t rng_seed = 2002;
  /// Check that the frame fan-out does not exceed the source-tree fan-out
  /// (Sec. 2.3). This is a *build-time* guarantee: deletions can shrink the
  /// source fan-out below a frame fan-out that was legal when built, so
  /// callers auditing a scheme after destructive updates turn this off.
  bool check_frame_bound = true;
  /// Cross-check the packed fast path against the BigUint path (identifier
  /// arithmetic and storage key encoding). Flips the process-wide packed
  /// toggle back and forth, so do not run concurrently with other work.
  bool check_packed = true;
  /// Check the ancestor-path cache against fresh rparent() recomputation.
  bool check_cache = true;
};

/// What a passing run covered (for the `ruidx_tool check` report).
struct CheckReport {
  uint64_t nodes_checked = 0;
  uint64_t areas_checked = 0;
  uint64_t pairs_sampled = 0;
  /// Names of the invariants that ran clean, in execution order.
  std::vector<std::string> invariants;

  std::string Summary() const;
};

/// Verifies every document-level invariant of `scheme` over the tree rooted
/// at `root`: K-table sortedness/uniqueness and packed-mirror agreement,
/// UID-local-area cover/disjointness (Def. 1), frame fan-out bounds
/// (Sec. 2.3), rparent() closure against the DOM (Fig. 6), identifier
/// uniqueness, document-order agreement (CompareIds, storage key byte
/// order, DOM order), ancestor-path-cache coherence, and packed/BigUint
/// path agreement. Returns OK, or Corruption naming the first violated
/// invariant.
Status CheckDocumentInvariants(const core::Ruid2Scheme& scheme,
                               xml::Node* root,
                               const CheckOptions& options = {},
                               CheckReport* report = nullptr);

/// Verifies a store loaded from (`scheme`, `root`): index keys strictly
/// ascending, every key byte-exact with its record's identifier, every
/// record backed by a labeled DOM node (name/type/parent agreement), and
/// the record count equal to the label count. The secondary-index battery
/// then proves the name postings cover the records under the right term
/// hashes (name-index-coverage), and the path postings carry DOM-derived
/// path terms and ascend in identifier order within a term
/// (path-index-order). Finally flushes the store and runs the on-disk
/// battery (page checksums, LSN monotonicity, free-list sanity, index-page
/// reachability) against the raw file image plus the store-side
/// postings↔heap agreement checks.
Status CheckStoreInvariants(const core::Ruid2Scheme& scheme, xml::Node* root,
                            storage::ElementStore* store,
                            const CheckOptions& options = {},
                            CheckReport* report = nullptr);

/// Multilevel (Def. 4) counterpart: identifier completeness/uniqueness,
/// recursive parent() closure against the DOM, and document-order agreement
/// for sampled pairs.
Status CheckRuidMInvariants(const core::RuidMScheme& scheme, xml::Node* root,
                            const CheckOptions& options = {},
                            CheckReport* report = nullptr);

}  // namespace analysis
}  // namespace ruidx

#endif  // RUIDX_ANALYSIS_INVARIANT_CHECKER_H_
