#include "xpath/dom_eval.h"

#include <algorithm>
#include <unordered_map>

#include "xpath/eval_common.h"
#include "xpath/parser.h"

namespace ruidx {
namespace xpath {

std::vector<xml::Node*> DomEvaluator::GenerateAxis(xml::Node* n, Axis axis) {
  std::vector<xml::Node*> out;
  switch (axis) {
    case Axis::kSelf:
      out.push_back(n);
      break;
    case Axis::kChild:
      out = n->children();
      break;
    case Axis::kAttribute:
      out = n->attributes();
      break;
    case Axis::kParent:
      if (n->parent() != nullptr && !n->parent()->is_document()) {
        out.push_back(n->parent());
      }
      break;
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf:
      if (axis == Axis::kAncestorOrSelf) out.push_back(n);
      for (xml::Node* p = n->parent(); p != nullptr && !p->is_document();
           p = p->parent()) {
        out.push_back(p);
      }
      break;
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf:
      xml::PreorderTraverse(n, [&](xml::Node* x, int) {
        if (x != n || axis == Axis::kDescendantOrSelf) out.push_back(x);
        return true;
      });
      break;
    case Axis::kFollowingSibling:
    case Axis::kPrecedingSibling: {
      xml::Node* parent = n->parent();
      if (parent == nullptr) break;
      const auto& sibs = parent->children();
      int idx = n->IndexInParent();
      if (idx < 0) break;
      if (axis == Axis::kFollowingSibling) {
        for (size_t i = static_cast<size_t>(idx) + 1; i < sibs.size(); ++i) {
          out.push_back(sibs[i]);
        }
      } else {
        for (size_t i = static_cast<size_t>(idx); i-- > 0;) {
          out.push_back(sibs[i]);  // nearest first (reverse axis order)
        }
      }
      break;
    }
    case Axis::kFollowing: {
      // For each ancestor-or-self, the subtrees of its following siblings.
      for (xml::Node* cur = n; cur != nullptr && !cur->is_document();
           cur = cur->parent()) {
        xml::Node* parent = cur->parent();
        if (parent == nullptr) break;
        const auto& sibs = parent->children();
        int idx = cur->IndexInParent();
        for (size_t i = static_cast<size_t>(idx) + 1; i < sibs.size(); ++i) {
          xml::PreorderTraverse(sibs[i], [&](xml::Node* x, int) {
            out.push_back(x);
            return true;
          });
        }
      }
      break;
    }
    case Axis::kPreceding: {
      // Reverse-document-order: nearest preceding subtree first.
      for (xml::Node* cur = n; cur != nullptr && !cur->is_document();
           cur = cur->parent()) {
        xml::Node* parent = cur->parent();
        if (parent == nullptr) break;
        const auto& sibs = parent->children();
        int idx = cur->IndexInParent();
        for (size_t i = static_cast<size_t>(idx); i-- > 0;) {
          // Collect the subtree, then reverse it (preorder -> reverse doc).
          std::vector<xml::Node*> subtree;
          xml::PreorderTraverse(sibs[i], [&](xml::Node* x, int) {
            subtree.push_back(x);
            return true;
          });
          out.insert(out.end(), subtree.rbegin(), subtree.rend());
        }
      }
      break;
    }
  }
  nodes_visited_ += out.size();
  return out;
}

void DomEvaluator::SortDocumentOrder(std::vector<xml::Node*>* nodes) {
  // Build a document-order index, slotting attributes right after their
  // owner element. Keyed by serial, not pointer: the comparator's behaviour
  // must depend on the tree alone, never on node addresses.
  std::unordered_map<uint32_t, uint64_t> order;
  uint64_t pos = 0;
  xml::PreorderTraverse(doc_->document_node(), [&](xml::Node* n, int) {
    order[n->serial()] = pos++;
    for (xml::Node* a : n->attributes()) order[a->serial()] = pos++;
    return true;
  });
  std::sort(nodes->begin(), nodes->end(),
            [&](const xml::Node* a, const xml::Node* b) {
              return order.at(a->serial()) < order.at(b->serial());
            });
}

Result<std::vector<xml::Node*>> DomEvaluator::Evaluate(
    const LocationPath& path, xml::Node* context) {
  if (context == nullptr || path.absolute) context = doc_->document_node();
  std::vector<xml::Node*> current{context};
  for (const Step& step : path.steps) {
    std::vector<xml::Node*> next;
    for (xml::Node* n : current) {
      std::vector<xml::Node*> axis_nodes = GenerateAxis(n, step.axis);
      std::vector<xml::Node*> tested;
      tested.reserve(axis_nodes.size());
      for (xml::Node* x : axis_nodes) {
        if (MatchesTest(x, step.test, step.axis)) tested.push_back(x);
      }
      tested = ApplyPredicates(std::move(tested), step.predicates);
      next.insert(next.end(), tested.begin(), tested.end());
    }
    current = DedupNodes(std::move(next));
    if (current.empty()) break;
  }
  SortDocumentOrder(&current);
  return current;
}

Result<std::vector<xml::Node*>> DomEvaluator::Evaluate(const UnionExpr& expr,
                                                       xml::Node* context) {
  std::vector<xml::Node*> merged;
  for (const LocationPath& path : expr.paths) {
    RUIDX_ASSIGN_OR_RETURN(std::vector<xml::Node*> part,
                           Evaluate(path, context));
    merged.insert(merged.end(), part.begin(), part.end());
  }
  merged = DedupNodes(std::move(merged));
  SortDocumentOrder(&merged);
  return merged;
}

Result<std::vector<xml::Node*>> DomEvaluator::Evaluate(std::string_view path,
                                                       xml::Node* context) {
  RUIDX_ASSIGN_OR_RETURN(UnionExpr parsed, ParseUnion(path));
  return Evaluate(parsed, context);
}

}  // namespace xpath
}  // namespace ruidx
