// Identifier-based XPath evaluation (Sec. 3.5 and Sec. 4 "Query
// evaluation"): axes are generated with the ruid routines — rparent,
// rancestor, rchildren, rdescendant, rpsibling, rfsibling, rpreceding,
// rfollowing — instead of pointer navigation. The attribute axis goes
// through the owner element (attributes are reached from, not labeled by,
// the numbering scheme, matching the paper's data model).
#ifndef RUIDX_XPATH_RUID_EVAL_H_
#define RUIDX_XPATH_RUID_EVAL_H_

#include <cstdint>
#include <vector>

#include "core/axes.h"
#include "core/ruid2.h"
#include "util/result.h"
#include "xml/dom.h"
#include "xpath/ast.h"
#include "xpath/name_index.h"
#include "xpath/path_index.h"

namespace ruidx {
namespace xpath {

class RuidEvaluator {
 public:
  /// The document and scheme must outlive the evaluator; the scheme must be
  /// built over the document's tree. Re-create (or Refresh) after updates.
  RuidEvaluator(xml::Document* doc, const core::Ruid2Scheme* scheme);

  /// Evaluates `path` against the context node (defaults to the document
  /// node; an absolute path always starts there). Result in document order
  /// (by the axes' order key), deduped.
  Result<std::vector<xml::Node*>> Evaluate(const LocationPath& path,
                                           xml::Node* context = nullptr);

  /// Union evaluation: merged, deduplicated, document order.
  Result<std::vector<xml::Node*>> Evaluate(const UnionExpr& expr,
                                           xml::Node* context = nullptr);

  /// Convenience: parse (union grammar) then evaluate.
  Result<std::vector<xml::Node*>> Evaluate(std::string_view path,
                                           xml::Node* context = nullptr);

  /// Rebuilds the axis index and the order key after a structural update.
  void Refresh() { axes_.Refresh(); }

  /// Enables the Sec. 3.5 "first approach" for selective steps: when a step
  /// has a name test and one of the big axes (descendant, ancestor,
  /// preceding, following), the evaluator takes the nodes with that name
  /// from the index and keeps those whose identifier passes the axis test —
  /// pure arithmetic per candidate. The index must outlive the evaluator
  /// and be rebuilt after updates. Pass nullptr to disable.
  void SetNameIndex(const NameIndex* index) { name_index_ = index; }

  /// Enables single-lookup answering of fully named absolute child chains
  /// (/a/b/c): the chain's tag-path term keys one posting list, so no step
  /// loop runs at all. The index must outlive the evaluator and be kept
  /// fresh via PathIndex::OnUpdate. Pass nullptr to disable.
  void SetPathIndex(const PathIndex* index) { path_index_ = index; }

  /// Identifiers materialized while generating axes, postings read by the
  /// index routes included (work metric).
  uint64_t ids_generated() const { return ids_generated_; }
  void ResetCounters() { ids_generated_ = 0; }

 private:
  std::vector<xml::Node*> GenerateAxis(xml::Node* n, Axis axis);

  /// True when the step qualifies for name-index candidate filtering and
  /// the Sec. 3.5 selectivity rule favours it ("the first approach is good
  /// only for the cases in which C is specific"). A descendant step whose
  /// whole context is the document node is always index-answered: the
  /// posting list IS the result, no per-candidate arithmetic.
  bool StepUsesIndex(const Step& step,
                     const std::vector<xml::Node*>& context) const;

  /// The Sec. 3.5 "element1/*/element2" trick: an absolute all-child-axis
  /// path with a name test at the end is answered backwards — take the
  /// candidates from the index and climb with rparent, checking each level's
  /// name test — without scanning any collection. Returns true and fills
  /// *out when the rewrite applies.
  bool TryChildChainBackwards(const std::vector<Step>& steps,
                              const xml::Node* context,
                              std::vector<xml::Node*>* out);

  /// Answers an absolute all-named child chain (/a/b/c, no predicates)
  /// straight from the path index: one term composition, one posting-list
  /// lookup. Strictly cheaper than the backwards climb, which this
  /// pre-empts when both rewrites apply. Returns true and fills *out when
  /// the rewrite applies.
  bool TryPathIndexChain(const std::vector<Step>& steps,
                         const xml::Node* context,
                         std::vector<xml::Node*>* out);

  /// Evaluates one indexable step over the whole context set.
  std::vector<xml::Node*> EvalStepViaIndex(
      const std::vector<xml::Node*>& context, const Step& step);

  /// The `//t[k]` shape: when `context` is the document node, `dos` is
  /// descendant-or-self::node() and `child` a name-tested child step (left
  /// unfused only when it has a positional predicate), answers both steps
  /// from the postings of t grouped by rparent: each group is one parent's
  /// t children in document order, and the predicates run once per group.
  /// Returns true and fills *out (in no particular order) when the rewrite
  /// applies.
  bool TryChildrenGroupedByParent(const Step& dos, const Step& child,
                                  const std::vector<xml::Node*>& context,
                                  std::vector<xml::Node*>* out);

  /// Document-order sort key: the document node first, then labeled nodes
  /// by preorder rank, each attribute right after its owner element in
  /// declaration order.
  uint64_t OrderKey(const xml::Node* n) const;

  /// Sorts into document order by the order key and drops duplicates.
  void SortDocumentOrder(std::vector<xml::Node*>* nodes) const;

  xml::Document* doc_;
  const core::Ruid2Scheme* scheme_;
  core::RuidAxes axes_;
  const NameIndex* name_index_ = nullptr;
  const PathIndex* path_index_ = nullptr;
  uint64_t ids_generated_ = 0;
};

}  // namespace xpath
}  // namespace ruidx

#endif  // RUIDX_XPATH_RUID_EVAL_H_
