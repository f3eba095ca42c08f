#include "version/versioned_document.h"

#include <sstream>
#include <utility>

#include "xml/parser.h"
#include "xml/serializer.h"

namespace ruidx {
namespace version {

std::string Operation::ToString() const {
  std::ostringstream os;
  os << "#" << sequence << " ";
  if (kind == Kind::kInsert) {
    os << "insert " << payload << " under " << parent.ToString() << " at "
       << position;
  } else {
    os << "delete " << target.ToString();
  }
  return os.str();
}

Result<std::unique_ptr<VersionedDocument>> VersionedDocument::FromXml(
    const std::string& base_xml, core::PartitionOptions options) {
  auto vdoc =
      std::unique_ptr<VersionedDocument>(new VersionedDocument(options));
  RUIDX_ASSIGN_OR_RETURN(vdoc->doc_, xml::Parse(base_xml));
  if (vdoc->doc_->root() == nullptr) {
    return Status::InvalidArgument("base document has no root element");
  }
  vdoc->base_xml_ = base_xml;
  vdoc->scheme_.Build(vdoc->doc_->root());
  return vdoc;
}

Result<core::Ruid2Id> VersionedDocument::Insert(core::Ruid2Id parent,
                                                uint64_t position,
                                                const std::string& fragment_xml) {
  xml::Node* parent_node = scheme_.NodeById(parent);
  if (parent_node == nullptr) {
    return Status::NotFound("no node carries identifier " + parent.ToString());
  }
  // Parse the fragment in a scratch document, then copy it into ours (node
  // ownership is per document).
  RUIDX_ASSIGN_OR_RETURN(std::unique_ptr<xml::Document> scratch,
                         xml::Parse(fragment_xml));
  xml::Node* copy = xml::DeepCopy(doc_.get(), scratch->root());
  if (copy == nullptr) {
    return Status::InvalidArgument("fragment has no element root");
  }
  RUIDX_ASSIGN_OR_RETURN(
      core::UpdateReport report,
      scheme_.InsertAndRelabel(doc_.get(), parent_node,
                               static_cast<size_t>(position), copy));
  total_relabeled_ += report.relabeled;

  Operation op;
  op.kind = Operation::Kind::kInsert;
  op.sequence = journal_.size() + 1;
  op.parent = std::move(parent);
  op.position = position;
  op.payload = xml::Serialize(scratch->root());
  journal_.push_back(std::move(op));
  ++version_;
  return scheme_.label(copy);
}

Status VersionedDocument::Delete(core::Ruid2Id target) {
  xml::Node* victim = scheme_.NodeById(target);
  if (victim == nullptr) {
    return Status::NotFound("no node carries identifier " + target.ToString());
  }
  RUIDX_ASSIGN_OR_RETURN(core::UpdateReport report,
                         scheme_.RemoveAndRelabel(doc_.get(), victim));
  total_relabeled_ += report.relabeled;

  Operation op;
  op.kind = Operation::Kind::kDelete;
  op.sequence = journal_.size() + 1;
  op.target = std::move(target);
  journal_.push_back(std::move(op));
  ++version_;
  return Status::OK();
}

Status VersionedDocument::Apply(const Operation& op) {
  if (op.kind == Operation::Kind::kInsert) {
    return Insert(op.parent, op.position, op.payload).status();
  }
  return Delete(op.target);
}

Status VersionedDocument::ApplyAll(const std::vector<Operation>& journal) {
  for (const Operation& op : journal) {
    RUIDX_RETURN_NOT_OK(Apply(op));
  }
  return Status::OK();
}

Status VersionedDocument::RollbackTo(uint64_t sequence) {
  if (sequence > journal_.size()) {
    return Status::InvalidArgument("cannot roll back to sequence " +
                                   std::to_string(sequence) + ": journal has " +
                                   std::to_string(journal_.size()) +
                                   " operations");
  }
  std::vector<Operation> prefix(journal_.begin(),
                                journal_.begin() + sequence);
  // Rebuild the base state in place. The scheme owns a mutex (the ancestor
  // cache), so it is rebuilt with Build() — which resets every table —
  // rather than move-assigned from a scratch scheme.
  RUIDX_ASSIGN_OR_RETURN(std::unique_ptr<xml::Document> fresh,
                         xml::Parse(base_xml_));
  if (fresh->root() == nullptr) {
    return Status::Corruption("base document has no root element");
  }
  doc_ = std::move(fresh);
  scheme_.Build(doc_->root());
  journal_.clear();
  total_relabeled_ = 0;
  // Replay re-journals the prefix; construction and incremental
  // renumbering are deterministic, so the surviving operations come back
  // with their exact original identifiers and sequence numbers.
  const uint64_t version_before = version_;
  RUIDX_RETURN_NOT_OK(ApplyAll(prefix));
  version_ = version_before + 1;
  return Status::OK();
}

std::string VersionedDocument::ToXml() const {
  return xml::Serialize(doc_->document_node());
}

}  // namespace version
}  // namespace ruidx
