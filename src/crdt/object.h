// A ledger-resident CRDT object: a typed root node plus Algorithm 1.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "crdt/node.h"

namespace orderless::crdt {

/// One CRDT object identified on the ledger, e.g. the "Party1" map of the
/// voting application.
class CrdtObject {
 public:
  CrdtObject(std::string object_id, CrdtType root_type);
  CrdtObject(CrdtObject&&) = default;
  CrdtObject& operator=(CrdtObject&&) = default;

  const std::string& id() const { return id_; }
  CrdtType root_type() const { return root_type_; }

  /// Algorithm 1 (ApplyOperations): applies each modification in order,
  /// creating missing path locations and resolving conflicts per CRDT type.
  /// Re-applying an operation (same id and content) leaves the state as it
  /// was: every node type dedups on its own (docs/crdt-semantics.md §2).
  void ApplyOperations(const std::vector<Operation>& ops);

  /// Applies a single operation; returns false if it was ignored
  /// (wrong object id/type, or type-incompatible path).
  bool ApplyOperation(const Operation& op);

  /// Read API (Table 1): value at `path` from the object's root.
  ReadResult Read(const std::vector<std::string>& path = {}) const;

  const CrdtNode& root() const { return *root_; }

  /// Canonical state bytes: equal iff the same operation set was absorbed.
  Bytes EncodeState() const;
  static std::unique_ptr<CrdtObject> DecodeState(const std::string& object_id,
                                                 BytesView state);

  /// Deep copy.
  CrdtObject CloneObject() const;

  /// State-based merge (join) with another replica of the same object.
  void MergeState(const CrdtObject& other);

 private:
  std::string id_;
  CrdtType root_type_;
  std::unique_ptr<CrdtNode> root_;
};

}  // namespace orderless::crdt
