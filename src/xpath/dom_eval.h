// Navigational XPath evaluation over DOM pointers. This is the ground truth
// the identifier-based evaluator is checked against, and the baseline the
// E10 benchmark compares ruid axis construction to.
#ifndef RUIDX_XPATH_DOM_EVAL_H_
#define RUIDX_XPATH_DOM_EVAL_H_

#include <cstdint>
#include <vector>

#include "util/result.h"
#include "xml/dom.h"
#include "xpath/ast.h"

namespace ruidx {
namespace xpath {

class DomEvaluator {
 public:
  /// The document must outlive the evaluator.
  explicit DomEvaluator(xml::Document* doc) : doc_(doc) {}

  /// Evaluates `path` with `context` as the context node (defaults to the
  /// document node; an absolute path always starts there). The result is
  /// in document order without duplicates.
  Result<std::vector<xml::Node*>> Evaluate(const LocationPath& path,
                                           xml::Node* context = nullptr);

  /// Union evaluation: merged, deduplicated, document order.
  Result<std::vector<xml::Node*>> Evaluate(const UnionExpr& expr,
                                           xml::Node* context = nullptr);

  /// Convenience: parse (union grammar) then evaluate.
  Result<std::vector<xml::Node*>> Evaluate(std::string_view path,
                                           xml::Node* context = nullptr);

  /// Nodes touched while generating axes since construction (work metric
  /// for the benchmarks).
  uint64_t nodes_visited() const { return nodes_visited_; }
  void ResetCounters() { nodes_visited_ = 0; }

 private:
  std::vector<xml::Node*> GenerateAxis(xml::Node* n, Axis axis);
  void SortDocumentOrder(std::vector<xml::Node*>* nodes);

  xml::Document* doc_;
  uint64_t nodes_visited_ = 0;
};

}  // namespace xpath
}  // namespace ruidx

#endif  // RUIDX_XPATH_DOM_EVAL_H_
