// VersionedDocument: change management over stable ruid identifiers.
//
// Sec. 4 of the paper argues ruid "can be applied in applications for
// managing data that have frequent structural updates" and for "managing
// various data sources scattered over several sites on a network": because
// an update renumbers only one UID-local area, identifiers are stable
// enough to *address* edits. This module exploits that: every structural
// operation is journaled as (kind, identifier, payload), and a journal can
// be replayed against another copy of the base document — identifiers line
// up because construction and incremental renumbering are deterministic.
#ifndef RUIDX_VERSION_VERSIONED_DOCUMENT_H_
#define RUIDX_VERSION_VERSIONED_DOCUMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/ruid2.h"
#include "util/result.h"
#include "xml/dom.h"

namespace ruidx {
namespace version {

/// One journaled structural operation, addressed by identifiers.
struct Operation {
  enum class Kind : uint8_t { kInsert, kDelete };

  Kind kind = Kind::kInsert;
  uint64_t sequence = 0;  // 1-based position in the journal
  /// kInsert: identifier of the parent *at the time of the operation*.
  core::Ruid2Id parent;
  /// kInsert: child position under the parent.
  uint64_t position = 0;
  /// kInsert: the inserted subtree, serialized as XML.
  std::string payload;
  /// kDelete: identifier of the removed subtree's root at operation time.
  core::Ruid2Id target;

  std::string ToString() const;
};

/// \brief A document plus its ruid scheme plus the operation journal.
class VersionedDocument {
 public:
  /// Parses `base_xml` and numbers it. All copies built from the same base
  /// text and options produce identical identifiers.
  static Result<std::unique_ptr<VersionedDocument>> FromXml(
      const std::string& base_xml, core::PartitionOptions options = {});

  /// Inserts the subtree given as XML text under the node with identifier
  /// `parent` at `position`, journals the operation, and returns the new
  /// subtree root's identifier. Identifiers are taken by value: a caller
  /// may pass scheme().label(n), which the relabeling rewrites.
  Result<core::Ruid2Id> Insert(core::Ruid2Id parent, uint64_t position,
                               const std::string& fragment_xml);

  /// Removes the subtree rooted at the node with identifier `target` and
  /// journals the operation.
  Status Delete(core::Ruid2Id target);

  /// Applies a foreign operation (e.g. received from another site).
  Status Apply(const Operation& op);

  /// Replays `journal` on top of the current state.
  Status ApplyAll(const std::vector<Operation>& journal);

  /// Rewinds the document to the state just after journal entry `sequence`
  /// (0 = the base document): re-parses the base text, renumbers it, and
  /// replays the journal prefix. Operations past `sequence` are discarded.
  /// Advances version() by one — rollback is itself a change.
  Status RollbackTo(uint64_t sequence);

  const std::vector<Operation>& journal() const { return journal_; }

  /// Monotonic change counter. Counts every successful Insert/Delete/Apply
  /// and every RollbackTo. Deliberately NOT journal_.size(): a rollback
  /// shortens the journal, and a version number derived from its length
  /// would first run backwards and then hand out already-used versions to
  /// the operations re-applied afterwards.
  uint64_t version() const { return version_; }

  xml::Document* document() { return doc_.get(); }
  const core::Ruid2Scheme& scheme() const { return scheme_; }

  /// Current content serialized as XML.
  std::string ToXml() const;

  /// Sum of identifiers changed by all operations so far (the update-scope
  /// metric of Sec. 3.2, accumulated).
  uint64_t total_relabeled() const { return total_relabeled_; }

 private:
  explicit VersionedDocument(core::PartitionOptions options)
      : scheme_(std::move(options)) {}

  std::unique_ptr<xml::Document> doc_;
  core::Ruid2Scheme scheme_;
  /// Kept verbatim so RollbackTo can rebuild the numbering from scratch —
  /// construction is deterministic, so replaying a journal prefix over a
  /// fresh parse reproduces the exact identifiers of that version.
  std::string base_xml_;
  std::vector<Operation> journal_;
  uint64_t version_ = 0;
  uint64_t total_relabeled_ = 0;
};

}  // namespace version
}  // namespace ruidx

#endif  // RUIDX_VERSION_VERSIONED_DOCUMENT_H_
