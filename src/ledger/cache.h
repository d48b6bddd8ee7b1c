// In-memory CRDT object cache (paper §6): the materialized current value of
// every CRDT object, updated on commit so reads don't replay the whole
// operation history. Offers read-your-writes from the organization's view.
//
// The paper's Go prototype guards the cache with a lock and applies
// modifications sequentially; in the simulator that serialization is modeled
// as simulated service time on the organization's cache-lock queue. On the
// host each cache is owned by its organization's lane, which alone applies
// and reads it while the simulation runs, so the class takes no lock.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "crdt/object.h"

namespace orderless::ledger {

class CrdtCache {
 public:
  /// Applies operations to their objects, creating objects on first touch.
  /// Re-delivered operations leave the state as it was, and type-incompatible
  /// ones are ignored, identically on every replica.
  void Apply(const std::vector<crdt::Operation>& ops);

  /// Reads an object's value at `path`; a missing object reads as absent.
  crdt::ReadResult Read(const std::string& object_id,
                        const std::vector<std::string>& path = {}) const;

  /// Canonical state of one object (empty when absent).
  Bytes EncodeObjectState(const std::string& object_id) const;

  /// Canonical state of every object, sorted by object id — the raw material
  /// of a checkpoint snapshot. Deterministic: two caches that absorbed the
  /// same operation set return byte-identical snapshots.
  std::vector<std::pair<std::string, Bytes>> SnapshotStates() const;

  /// Merges an encoded object state (crdt::CrdtObject::EncodeState bytes)
  /// into the cache: CRDT-joins with the existing object, or installs it
  /// outright when the object is new. Returns false on undecodable bytes.
  bool MergeEncodedState(const std::string& object_id, BytesView state);

  std::size_t object_count() const;

  /// Drops everything (used when rebuilding from the persistent store).
  void Clear();

 private:
  std::unordered_map<std::string, std::unique_ptr<crdt::CrdtObject>> objects_;
};

}  // namespace orderless::ledger
