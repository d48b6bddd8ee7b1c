// Ordered key-value store interface: the ledger's database component.
// MemKvStore backs simulations; MiniLevel is the persistent LevelDB
// substitute.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "common/status.h"

namespace orderless::ledger {

class KvStore {
 public:
  virtual ~KvStore() = default;

  virtual Status Put(std::string_view key, BytesView value) = 0;
  virtual Status Delete(std::string_view key) = 0;
  virtual std::optional<Bytes> Get(std::string_view key) const = 0;

  /// Visits live keys with the given prefix in lexicographic order; the
  /// visitor returns false to stop early.
  virtual void ScanPrefix(
      std::string_view prefix,
      const std::function<bool(std::string_view key, BytesView value)>&
          visitor) const = 0;

  virtual std::size_t ApproximateCount() const = 0;

  /// Hint that a large keyspace range was just deleted (checkpoint pruning
  /// behind the frontier): durable stores fold the tombstones into their
  /// on-disk structures and reclaim the space. Default: no-op.
  virtual Status CompactRange() { return Status::Ok(); }
};

/// std::map-backed store used inside simulations.
class MemKvStore final : public KvStore {
 public:
  Status Put(std::string_view key, BytesView value) override;
  Status Delete(std::string_view key) override;
  std::optional<Bytes> Get(std::string_view key) const override;
  void ScanPrefix(std::string_view prefix,
                  const std::function<bool(std::string_view, BytesView)>&
                      visitor) const override;
  std::size_t ApproximateCount() const override { return data_.size(); }

 private:
  std::map<std::string, Bytes, std::less<>> data_;
};

}  // namespace orderless::ledger
