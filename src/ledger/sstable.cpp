#include "ledger/sstable.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "codec/codec.h"

namespace orderless::ledger {

namespace {
constexpr std::uint64_t kMagic = 0x4f52444c53535431ULL;  // "ORDLSST1"
constexpr std::size_t kIndexStride = 16;
}  // namespace

Status WriteSstable(const std::string& path,
                    const std::vector<SstRecord>& sorted_records) {
  codec::Writer body;
  codec::Writer index;
  BloomFilter bloom(sorted_records.size());
  std::size_t index_entries = 0;

  std::vector<std::pair<std::string, std::uint64_t>> sparse;
  for (std::size_t i = 0; i < sorted_records.size(); ++i) {
    const SstRecord& rec = sorted_records[i];
    if (i % kIndexStride == 0) {
      sparse.emplace_back(rec.key, body.size());
      ++index_entries;
    }
    bloom.Add(rec.key);
    body.PutString(rec.key);
    body.PutU8(rec.tombstone ? 1 : 0);
    body.PutBytes(BytesView(rec.value));
  }

  index.PutVarint(index_entries);
  for (const auto& [key, offset] : sparse) {
    index.PutString(key);
    index.PutVarint(offset);
  }

  codec::Writer bloom_section;
  bloom_section.PutU32(bloom.num_hashes());
  bloom_section.PutVarint(bloom.words().size());
  for (std::uint64_t word : bloom.words()) bloom_section.PutU64(word);

  const std::uint64_t index_offset = body.size();
  const std::uint64_t bloom_offset = index_offset + index.size();

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::Error("sstable: cannot open " + tmp);
    auto write = [&out](const Bytes& b) {
      out.write(reinterpret_cast<const char*>(b.data()),
                static_cast<std::streamsize>(b.size()));
    };
    write(body.data());
    write(index.data());
    write(bloom_section.data());
    codec::Writer footer;
    footer.PutU64(index_offset);
    footer.PutU64(bloom_offset);
    footer.PutU64(sorted_records.size());
    footer.PutU64(kMagic);
    write(footer.data());
    if (!out.good()) return Status::Error("sstable: write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Error("sstable: rename failed for " + path);
  }
  return Status::Ok();
}

Result<std::shared_ptr<SstableReader>> SstableReader::Open(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return Result<std::shared_ptr<SstableReader>>::Error(
        "sstable: cannot open " + path);
  }
  const std::streamsize size = in.tellg();
  if (size < 32) {
    return Result<std::shared_ptr<SstableReader>>::Error(
        "sstable: truncated file " + path);
  }
  Bytes file(static_cast<std::size_t>(size));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(file.data()), size);
  if (!in.good()) {
    return Result<std::shared_ptr<SstableReader>>::Error(
        "sstable: read failed " + path);
  }

  codec::Reader footer(BytesView(file.data() + size - 32, 32));
  const auto index_offset = footer.GetU64();
  const auto bloom_offset = footer.GetU64();
  const auto record_count = footer.GetU64();
  const auto magic = footer.GetU64();
  if (!magic || *magic != kMagic || !index_offset || !bloom_offset ||
      *bloom_offset < *index_offset ||
      *bloom_offset > static_cast<std::uint64_t>(size) - 32) {
    return Result<std::shared_ptr<SstableReader>>::Error(
        "sstable: bad footer in " + path);
  }

  auto reader = std::shared_ptr<SstableReader>(new SstableReader());
  reader->path_ = path;
  reader->record_count_ = static_cast<std::size_t>(*record_count);
  reader->data_.assign(file.begin(),
                       file.begin() + static_cast<std::ptrdiff_t>(*index_offset));

  codec::Reader index(BytesView(file.data() + *index_offset,
                                *bloom_offset - *index_offset));
  const auto entries = index.GetVarint();
  if (!entries) {
    return Result<std::shared_ptr<SstableReader>>::Error(
        "sstable: bad index in " + path);
  }
  for (std::uint64_t i = 0; i < *entries; ++i) {
    auto key = index.GetString();
    const auto offset = index.GetVarint();
    if (!key || !offset) {
      return Result<std::shared_ptr<SstableReader>>::Error(
          "sstable: bad index entry in " + path);
    }
    reader->index_.emplace_back(std::move(*key), *offset);
  }

  codec::Reader bloom(BytesView(file.data() + *bloom_offset,
                                static_cast<std::size_t>(size) - 32 -
                                    *bloom_offset));
  const auto num_hashes = bloom.GetU32();
  const auto word_count = bloom.GetVarint();
  // A corrupt count must not size the reservation below.
  if (!num_hashes || !word_count || *word_count > bloom.remaining() / 8) {
    return Result<std::shared_ptr<SstableReader>>::Error(
        "sstable: bad bloom in " + path);
  }
  std::vector<std::uint64_t> words;
  words.reserve(*word_count);
  for (std::uint64_t i = 0; i < *word_count; ++i) {
    const auto word = bloom.GetU64();
    if (!word) {
      return Result<std::shared_ptr<SstableReader>>::Error(
          "sstable: bad bloom words in " + path);
    }
    words.push_back(*word);
  }
  reader->bloom_ = std::make_unique<BloomFilter>(std::move(words), *num_hashes);
  return reader;
}

std::optional<SstRecord> SstableReader::DecodeRecordAt(
    std::size_t& offset) const {
  codec::Reader r(BytesView(data_.data() + offset, data_.size() - offset));
  const std::size_t before = r.remaining();
  auto key = r.GetString();
  const auto tombstone = r.GetU8();
  auto value = r.GetBytes();
  if (!key || !tombstone || !value) return std::nullopt;
  offset += before - r.remaining();
  SstRecord rec;
  rec.key = std::move(*key);
  rec.tombstone = *tombstone != 0;
  rec.value = std::move(*value);
  return rec;
}

std::optional<SstRecord> SstableReader::Get(std::string_view key) const {
  if (record_count_ == 0 || !bloom_->MayContain(key)) return std::nullopt;
  // Find the last sparse-index block whose first key is <= key.
  auto it = std::upper_bound(
      index_.begin(), index_.end(), key,
      [](std::string_view k, const auto& entry) { return k < entry.first; });
  if (it == index_.begin()) return std::nullopt;
  --it;
  std::size_t offset = static_cast<std::size_t>(it->second);
  while (offset < data_.size()) {
    auto rec = DecodeRecordAt(offset);
    if (!rec) return std::nullopt;
    if (rec->key == key) return rec;
    if (rec->key > key) return std::nullopt;
  }
  return std::nullopt;
}

void SstableReader::ScanPrefix(
    std::string_view prefix,
    const std::function<bool(const SstRecord&)>& visitor) const {
  std::size_t offset = 0;
  if (!index_.empty() && !prefix.empty()) {
    auto it = std::upper_bound(
        index_.begin(), index_.end(), prefix,
        [](std::string_view k, const auto& entry) { return k < entry.first; });
    if (it != index_.begin()) offset = static_cast<std::size_t>((--it)->second);
  }
  while (offset < data_.size()) {
    auto rec = DecodeRecordAt(offset);
    if (!rec) return;
    if (rec->key.compare(0, prefix.size(), prefix) == 0) {
      if (!visitor(*rec)) return;
    } else if (rec->key > prefix && rec->key.compare(0, prefix.size(), prefix) > 0) {
      return;  // past the prefix range
    }
  }
}

}  // namespace orderless::ledger
