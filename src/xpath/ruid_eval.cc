#include "xpath/ruid_eval.h"

#include <algorithm>

#include "xpath/eval_common.h"
#include "xpath/parser.h"

namespace ruidx {
namespace xpath {

RuidEvaluator::RuidEvaluator(xml::Document* doc,
                             const core::Ruid2Scheme* scheme)
    : doc_(doc), scheme_(scheme), axes_(scheme) {}

std::vector<xml::Node*> RuidEvaluator::GenerateAxis(xml::Node* n, Axis axis) {
  std::vector<xml::Node*> out;
  // The document node is not labeled; its child/descendant axes hop to the
  // tree root and continue with identifier arithmetic from there.
  if (n->is_document()) {
    switch (axis) {
      case Axis::kChild:
        out = n->children();
        break;
      case Axis::kDescendant:
      case Axis::kDescendantOrSelf:
        if (axis == Axis::kDescendantOrSelf) out.push_back(n);
        for (xml::Node* c : n->children()) {
          out.push_back(c);
          if (scheme_->HasLabel(c)) {
            auto sub = axes_.Descendants(scheme_->label(c));
            out.insert(out.end(), sub.begin(), sub.end());
          }
        }
        break;
      default:
        break;  // no parent/siblings/etc. for the document node
    }
    ids_generated_ += out.size();
    return out;
  }
  if (n->is_attribute()) {
    // Only the parent axis leads anywhere from an attribute.
    if (axis == Axis::kParent || axis == Axis::kAncestorOrSelf ||
        axis == Axis::kAncestor) {
      xml::Node* owner = n->parent();
      if (axis == Axis::kAncestorOrSelf) out.push_back(n);
      if (axis == Axis::kParent) {
        out.push_back(owner);
      } else if (owner != nullptr && scheme_->HasLabel(owner)) {
        out.push_back(owner);
        auto up = axes_.Ancestors(scheme_->label(owner));
        out.insert(out.end(), up.begin(), up.end());
      }
    } else if (axis == Axis::kSelf) {
      out.push_back(n);
    }
    ids_generated_ += out.size();
    return out;
  }

  const core::Ruid2Id& id = scheme_->label(n);
  switch (axis) {
    case Axis::kSelf:
      out.push_back(n);
      break;
    case Axis::kAttribute:
      out = n->attributes();
      break;
    case Axis::kChild:
      out = axes_.Children(id);
      break;
    case Axis::kDescendant:
      out = axes_.Descendants(id);
      break;
    case Axis::kDescendantOrSelf:
      out.push_back(n);
      {
        auto sub = axes_.Descendants(id);
        out.insert(out.end(), sub.begin(), sub.end());
      }
      break;
    case Axis::kParent: {
      auto p = scheme_->Parent(id);
      if (p.ok()) {
        xml::Node* parent = scheme_->NodeById(*p);
        if (parent != nullptr) out.push_back(parent);
      }
      break;
    }
    // The ancestor axes below resolve through Ruid2Scheme::Ancestors, which
    // serves the frame tail of each chain from the scheme's
    // AncestorPathCache (one memoized chain per area).
    case Axis::kAncestor:
      out = axes_.Ancestors(id);
      break;
    case Axis::kAncestorOrSelf:
      out.push_back(n);
      {
        auto up = axes_.Ancestors(id);
        out.insert(out.end(), up.begin(), up.end());
      }
      break;
    case Axis::kFollowingSibling:
      out = axes_.FollowingSiblings(id);
      break;
    case Axis::kPrecedingSibling:
      out = axes_.PrecedingSiblings(id);
      break;
    case Axis::kFollowing:
      out = axes_.Following(id);
      break;
    case Axis::kPreceding:
      out = axes_.Preceding(id);
      // rpreceding returns area-bulk order; reverse axes expect
      // nearest-first, which positional predicates rely on.
      SortDocumentOrder(&out);
      std::reverse(out.begin(), out.end());
      break;
  }
  ids_generated_ += out.size();
  return out;
}

bool RuidEvaluator::StepUsesIndex(
    const Step& step, const std::vector<xml::Node*>& context) const {
  if (name_index_ == nullptr) return false;
  if (step.test.kind != NodeTestKind::kName) return false;
  bool order_axis = false;
  switch (step.axis) {
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf:
    case Axis::kPreceding:
    case Axis::kFollowing:
      order_axis = true;
      break;
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf:
      break;
    default:
      return false;  // cheap axes navigate directly
  }
  // Positional predicates count within each context node's axis order,
  // which the merged candidate pass cannot reproduce.
  for (const Predicate& p : step.predicates) {
    if (p.kind == Predicate::Kind::kPosition) return false;
  }
  if (order_axis) {
    // Navigating preceding/following/ancestor costs ~document-size per
    // context node; candidate filtering costs |candidates| per context
    // node and is essentially always cheaper.
    return true;
  }
  // A `//name` step rooted at the document node needs no filtering at
  // all — every candidate descends from the document — so the posting
  // list is the answer regardless of its size.
  if (context.size() == 1 && context[0]->is_document()) return true;
  // Descendant axes navigate subtree-locally, which is cheap; take the
  // candidate route only when the condition is specific (Sec. 3.5): the
  // candidate x context pair work must stay well under one document scan.
  size_t candidates = name_index_->Lookup(step.test.name).size();
  return candidates * std::max<size_t>(context.size(), 1) <=
         scheme_->label_count() / 4;
}

bool RuidEvaluator::TryPathIndexChain(const std::vector<Step>& steps,
                                      const xml::Node* context,
                                      std::vector<xml::Node*>* out) {
  if (path_index_ == nullptr || steps.empty()) return false;
  if (context == nullptr || !context->is_document()) return false;
  std::vector<std::string_view> names;
  names.reserve(steps.size());
  for (const Step& step : steps) {
    if (step.axis != Axis::kChild || !step.predicates.empty()) return false;
    if (step.test.kind != NodeTestKind::kName) return false;
    names.push_back(step.test.name);
  }
  // The index keys every node type by its tag chain; a name test only
  // admits elements (a PI whose target matches the leaf name must not
  // slip in).
  for (xml::Node* n : path_index_->LookupPath(names)) {
    if (n->is_element()) out->push_back(n);
  }
  ids_generated_ += out->size();
  return true;
}

bool RuidEvaluator::TryChildChainBackwards(const std::vector<Step>& steps,
                                           const xml::Node* context,
                                           std::vector<xml::Node*>* out) {
  if (name_index_ == nullptr || steps.empty()) return false;
  if (context == nullptr || !context->is_document()) return false;
  for (const Step& step : steps) {
    if (step.axis != Axis::kChild || !step.predicates.empty()) return false;
    if (step.test.kind != NodeTestKind::kName &&
        step.test.kind != NodeTestKind::kAnyName) {
      return false;
    }
  }
  if (steps.back().test.kind != NodeTestKind::kName) return false;

  // "We need only to list the grandparents, by applying rparent() twice, of
  // the elements of the type element2 and exclude those which are not of
  // the type element1" — generalized to any all-child chain.
  const std::vector<xml::Node*>& candidates =
      name_index_->Lookup(steps.back().test.name);
  ids_generated_ += candidates.size();
  for (xml::Node* candidate : candidates) {
    core::Ruid2Id id = scheme_->label(candidate);
    xml::Node* node = candidate;
    bool matches = true;
    for (size_t j = steps.size(); j-- > 0;) {
      if (node == nullptr || !MatchesTest(node, steps[j].test, Axis::kChild)) {
        matches = false;
        break;
      }
      if (j == 0) {
        // The first step selects children of the document node, i.e. the
        // main root: the climb must have ended exactly there.
        matches = id == core::Ruid2RootId();
        break;
      }
      auto parent = scheme_->Parent(id);
      if (!parent.ok()) {
        matches = false;
        break;
      }
      id = parent.MoveValueUnsafe();
      node = scheme_->NodeById(id);
    }
    if (matches) out->push_back(candidate);
  }
  return true;
}

std::vector<xml::Node*> RuidEvaluator::EvalStepViaIndex(
    const std::vector<xml::Node*>& context, const Step& step) {
  const std::vector<xml::Node*>& candidates =
      name_index_->Lookup(step.test.name);
  ids_generated_ += candidates.size();
  // Every tree node descends from the document node: with it in the
  // context, a descendant step keeps every candidate, no arithmetic needed.
  bool from_document = false;
  if (step.axis == Axis::kDescendant || step.axis == Axis::kDescendantOrSelf) {
    for (xml::Node* n : context) from_document |= n->is_document();
  }
  auto on_axis = [&](xml::Node* x) {
    const core::Ruid2Id& xid = scheme_->label(x);
    uint32_t xrank = axes_.PreorderRank(x);
    for (xml::Node* n : context) {
      // The document node is on none of these axes but the descendant
      // ones; attribute contexts are handled by the navigate path.
      if (n->is_document() || n->is_attribute()) continue;
      const core::Ruid2Id& cid = scheme_->label(n);
      bool hit = false;
      switch (step.axis) {
        case Axis::kDescendant:
          hit = scheme_->IsAncestorId(cid, xid);
          break;
        case Axis::kDescendantOrSelf:
          hit = xid == cid || scheme_->IsAncestorId(cid, xid);
          break;
        case Axis::kAncestor:
          hit = scheme_->IsAncestorId(xid, cid);
          break;
        case Axis::kAncestorOrSelf:
          hit = xid == cid || scheme_->IsAncestorId(xid, cid);
          break;
        case Axis::kPreceding:
          hit = xrank < axes_.PreorderRank(n) &&
                !scheme_->IsAncestorId(xid, cid);
          break;
        case Axis::kFollowing:
          hit = xrank > axes_.PreorderRank(n) &&
                !scheme_->IsAncestorId(cid, xid);
          break;
        default:
          break;
      }
      if (hit) return true;
    }
    return false;
  };
  std::vector<xml::Node*> out;
  for (xml::Node* x : candidates) {
    if (!from_document && !on_axis(x)) continue;
    bool passes = true;
    for (const Predicate& p : step.predicates) {
      if (!MatchesPredicate(x, p)) {
        passes = false;
        break;
      }
    }
    if (passes) out.push_back(x);
  }
  return out;
}

bool RuidEvaluator::TryChildrenGroupedByParent(
    const Step& dos, const Step& child, const std::vector<xml::Node*>& context,
    std::vector<xml::Node*>* out) {
  if (name_index_ == nullptr) return false;
  if (context.size() != 1 || !context[0]->is_document()) return false;
  if (dos.axis != Axis::kDescendantOrSelf ||
      dos.test.kind != NodeTestKind::kAnyNode || !dos.predicates.empty()) {
    return false;
  }
  if (child.axis != Axis::kChild || child.test.kind != NodeTestKind::kName) {
    return false;
  }
  // Every node of the document is on descendant-or-self of the document
  // node, so each t posting is a child of some context node: its rparent
  // names its group. The main root has no rparent; it is the document
  // node's child.
  const std::vector<xml::Node*>& postings =
      name_index_->Lookup(child.test.name);
  ids_generated_ += postings.size();
  std::vector<std::pair<uint64_t, xml::Node*>> by_parent;
  by_parent.reserve(postings.size());
  for (xml::Node* x : postings) {
    auto parent = scheme_->Parent(scheme_->label(x));
    const xml::Node* p =
        parent.ok() ? scheme_->NodeById(*parent) : doc_->document_node();
    by_parent.emplace_back(OrderKey(p), x);
  }
  // Postings arrive in document order and the sort is stable, so each
  // group lists one parent's t children in axis order.
  std::stable_sort(
      by_parent.begin(), by_parent.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  for (size_t begin = 0, end = 0; begin < by_parent.size(); begin = end) {
    std::vector<xml::Node*> group;
    for (end = begin; end < by_parent.size() &&
                      by_parent[end].first == by_parent[begin].first;
         ++end) {
      group.push_back(by_parent[end].second);
    }
    group = ApplyPredicates(std::move(group), child.predicates);
    out->insert(out->end(), group.begin(), group.end());
  }
  return true;
}

namespace {

/// Fuses "descendant-or-self::node()/child::t" into "descendant::t" (exact
/// when the child step has no positional predicate — positions count per
/// parent there). This is what makes `//t` hit the name index.
std::vector<Step> FuseDescendantSteps(const std::vector<Step>& steps) {
  std::vector<Step> out;
  for (size_t i = 0; i < steps.size(); ++i) {
    const Step& step = steps[i];
    bool is_dos_node = step.axis == Axis::kDescendantOrSelf &&
                       step.test.kind == NodeTestKind::kAnyNode &&
                       step.predicates.empty();
    if (is_dos_node && i + 1 < steps.size()) {
      const Step& next = steps[i + 1];
      bool positional = false;
      for (const Predicate& p : next.predicates) {
        positional |= p.kind == Predicate::Kind::kPosition;
      }
      if (next.axis == Axis::kChild && !positional) {
        Step fused = next;
        fused.axis = Axis::kDescendant;
        out.push_back(std::move(fused));
        ++i;
        continue;
      }
    }
    out.push_back(step);
  }
  return out;
}

}  // namespace

Result<std::vector<xml::Node*>> RuidEvaluator::Evaluate(
    const LocationPath& path, xml::Node* context) {
  if (context == nullptr || path.absolute) context = doc_->document_node();
  std::vector<Step> steps = FuseDescendantSteps(path.steps);
  if (path.absolute) {
    std::vector<xml::Node*> chain_result;
    if (TryPathIndexChain(path.steps, context, &chain_result)) {
      return chain_result;  // postings are kept in document order
    }
    if (TryChildChainBackwards(path.steps, context, &chain_result)) {
      return chain_result;  // candidates arrive in document order
    }
  }
  // `current` is a duplicate-free document-order set after every step.
  std::vector<xml::Node*> current{context};
  for (size_t i = 0; i < steps.size() && !current.empty(); ++i) {
    const Step& step = steps[i];
    std::vector<xml::Node*> next;
    if (i + 1 < steps.size() &&
        TryChildrenGroupedByParent(step, steps[i + 1], current, &next)) {
      ++i;  // the child step is answered too
      SortDocumentOrder(&next);
      current = std::move(next);
      continue;
    }
    if (StepUsesIndex(step, current)) {
      // Attribute context nodes cannot be skipped silently on ancestor
      // axes; fall back when any are present.
      bool has_attribute_context = false;
      for (xml::Node* n : current) {
        has_attribute_context |= n->is_attribute();
      }
      if (!has_attribute_context) {
        // Postings arrive in document order, and the filter keeps it.
        current = EvalStepViaIndex(current, step);
        continue;
      }
    }
    // Following and descendant axis results come in area-bulk order;
    // positional predicates need axis order, so sort when one is present.
    bool needs_axis_order = false;
    for (const Predicate& p : step.predicates) {
      if (p.kind == Predicate::Kind::kPosition) needs_axis_order = true;
    }
    for (xml::Node* n : current) {
      std::vector<xml::Node*> axis_nodes = GenerateAxis(n, step.axis);
      if (needs_axis_order &&
          (step.axis == Axis::kFollowing || step.axis == Axis::kDescendant ||
           step.axis == Axis::kDescendantOrSelf)) {
        SortDocumentOrder(&axis_nodes);
      }
      std::vector<xml::Node*> tested;
      tested.reserve(axis_nodes.size());
      for (xml::Node* x : axis_nodes) {
        if (MatchesTest(x, step.test, step.axis)) tested.push_back(x);
      }
      tested = ApplyPredicates(std::move(tested), step.predicates);
      next.insert(next.end(), tested.begin(), tested.end());
    }
    SortDocumentOrder(&next);
    current = std::move(next);
  }
  return current;
}

uint64_t RuidEvaluator::OrderKey(const xml::Node* n) const {
  // High word: the preorder rank of the node or of an attribute's owner.
  // Low word: 0 for the document node, 1 for a labeled node, 2 + i for its
  // i-th attribute.
  if (n->is_document()) return 0;
  if (n->is_attribute()) {
    const xml::Node* owner = n->parent();
    const std::vector<xml::Node*>& attributes = owner->attributes();
    auto i = static_cast<uint64_t>(
        std::find(attributes.begin(), attributes.end(), n) -
        attributes.begin());
    return (uint64_t{axes_.PreorderRank(owner)} << 32) | (2 + i);
  }
  return (uint64_t{axes_.PreorderRank(n)} << 32) | 1;
}

void RuidEvaluator::SortDocumentOrder(std::vector<xml::Node*>* nodes) const {
  if (nodes->size() < 2) return;
  std::vector<std::pair<uint64_t, xml::Node*>> keyed;
  keyed.reserve(nodes->size());
  for (xml::Node* n : *nodes) keyed.emplace_back(OrderKey(n), n);
  // Serial breaks ties between nodes the scheme never ranked, so copies of
  // one node always end up adjacent.
  std::sort(keyed.begin(), keyed.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second->serial() < b.second->serial();
  });
  nodes->clear();
  for (const auto& [key, n] : keyed) {
    if (nodes->empty() || nodes->back() != n) nodes->push_back(n);
  }
}

Result<std::vector<xml::Node*>> RuidEvaluator::Evaluate(const UnionExpr& expr,
                                                        xml::Node* context) {
  // A single-path "union" is already duplicate-free and document-ordered.
  if (expr.paths.size() == 1) return Evaluate(expr.paths[0], context);
  std::vector<xml::Node*> merged;
  for (const LocationPath& path : expr.paths) {
    RUIDX_ASSIGN_OR_RETURN(std::vector<xml::Node*> part,
                           Evaluate(path, context));
    merged.insert(merged.end(), part.begin(), part.end());
  }
  SortDocumentOrder(&merged);
  return merged;
}

Result<std::vector<xml::Node*>> RuidEvaluator::Evaluate(std::string_view path,
                                                        xml::Node* context) {
  RUIDX_ASSIGN_OR_RETURN(UnionExpr parsed, ParseUnion(path));
  return Evaluate(parsed, context);
}

}  // namespace xpath
}  // namespace ruidx
