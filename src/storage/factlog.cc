#include "storage/factlog.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "storage/wire.h"
#include "util/hash.h"

namespace carac::storage {

namespace {

constexpr char kLogMagic[8] = {'C', 'A', 'R', 'A', 'C', 'F', 'L', 'G'};
constexpr size_t kFileHeaderBytes = 16;  // magic + version u32 + reserved u32

constexpr uint8_t kBatchTag = 1;
constexpr uint8_t kSymbolsTag = 2;
constexpr uint8_t kCommitTag = 3;

util::Status Corrupt(const std::string& path, uint64_t offset,
                     const std::string& what) {
  return util::Status::InvalidArgument(
      "fact log " + path + " at offset " + std::to_string(offset) + ": " +
      what);
}

}  // namespace

FactLog::~FactLog() {
  if (file_ != nullptr) std::fclose(file_);
}

util::Status FactLog::OpenForAppend(const std::string& path,
                                    std::unique_ptr<FactLog>* out,
                                    uint64_t* last_committed_epoch) {
  if (last_committed_epoch != nullptr) *last_committed_epoch = 0;
  std::error_code ec;
  const uint64_t existing = std::filesystem::exists(path, ec)
                                ? std::filesystem::file_size(path, ec)
                                : 0;
  if (existing >= kFileHeaderBytes) {
    // Scan the file we are about to extend (checksums verified, payloads
    // skipped). This both validates the header (a foreign or corrupt
    // log is refused, never extended) and finds the end of the
    // committed prefix, so any torn tail — crash debris from a previous
    // process — is truncated away HERE rather than relying on every
    // caller to have recovered first. Appending after torn bytes would
    // otherwise poison the whole log: a later Replay's checksum would
    // span the tear into the new records.
    ReplayResult scan;
    util::Status status = ScanOrReplay(path, &scan,
                                       /*decode_payloads=*/false);
    if (!status.ok()) {
      return util::Status::InvalidArgument(
          "fact log " + path +
          ": refusing to append to unrecoverable log: " + status.message());
    }
    if (scan.committed_bytes < kFileHeaderBytes) {
      // Torn inside the header: nothing recoverable, start over below.
    } else {
      if (last_committed_epoch != nullptr && !scan.epochs.empty()) {
        *last_committed_epoch = scan.epochs.back().epoch;
      }
      if (scan.torn_tail) {
        std::filesystem::resize_file(path, scan.committed_bytes, ec);
        if (ec) {
          return util::Status::Internal("cannot truncate torn fact log " +
                                        path + ": " + ec.message());
        }
      }
      std::FILE* f = std::fopen(path.c_str(), "ab");
      if (f == nullptr) {
        return util::Status::Internal("cannot append to fact log " + path);
      }
      out->reset(new FactLog(f, path));
      return util::Status::Ok();
    }
  }

  // Fresh (or header-torn) log: start over with a clean header.
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return util::Status::Internal("cannot create fact log " + path);
  }
  WireBuf header;
  header.PutBytes(kLogMagic, 8);
  header.PutU32(kFactLogFormatVersion);
  header.PutU32(0);  // Reserved.
  if (std::fwrite(header.data(), 1, header.size(), f) != header.size() ||
      std::fflush(f) != 0) {
    std::fclose(f);
    return util::Status::Internal("short write creating fact log " + path);
  }
  out->reset(new FactLog(f, path));
  return util::Status::Ok();
}

util::Status FactLog::AppendRecord(uint8_t tag, const unsigned char* payload,
                                   size_t len) {
  WireBuf record;
  record.PutU8(tag);
  record.PutU32(static_cast<uint32_t>(len));
  record.PutBytes(payload, len);
  record.PutU64(util::HashBytes(record.data(), record.size()));
  if (std::fwrite(record.data(), 1, record.size(), file_) != record.size()) {
    return util::Status::Internal("short write appending to fact log " +
                                  path_);
  }
  return util::Status::Ok();
}

util::Status FactLog::AppendBatch(RelationId relation, size_t arity,
                                  const std::vector<Tuple>& facts) {
  WireBuf payload;
  payload.PutU32(relation);
  payload.PutU32(static_cast<uint32_t>(arity));
  payload.PutU32(static_cast<uint32_t>(facts.size()));
  for (const Tuple& fact : facts) payload.PutValues(fact.data(), fact.size());
  return AppendRecord(kBatchTag, payload.data(), payload.size());
}

util::Status FactLog::AppendSymbols(
    uint64_t start_index, const std::vector<std::string_view>& symbols) {
  WireBuf payload;
  payload.PutU64(start_index);
  payload.PutU32(static_cast<uint32_t>(symbols.size()));
  for (std::string_view text : symbols) {
    payload.PutU32(static_cast<uint32_t>(text.size()));
    payload.PutBytes(text.data(), text.size());
  }
  return AppendRecord(kSymbolsTag, payload.data(), payload.size());
}

util::Status FactLog::Commit(uint64_t epoch) {
  WireBuf payload;
  payload.PutU64(epoch);
  CARAC_RETURN_IF_ERROR(AppendRecord(kCommitTag, payload.data(),
                                     payload.size()));
  // The commit record is the durability point: flush it to the OS so a
  // process crash after Commit() returns cannot lose the epoch. (Media
  // durability would add fsync; the recovery contract is crash-, not
  // power-failure-grade, and the tests exercise exactly this boundary.)
  if (std::fflush(file_) != 0) {
    return util::Status::Internal("flush failed on fact log " + path_);
  }
  return util::Status::Ok();
}

util::Status FactLog::Replay(const std::string& path, ReplayResult* out) {
  return ScanOrReplay(path, out, /*decode_payloads=*/true);
}

util::Status FactLog::ScanOrReplay(const std::string& path,
                                   ReplayResult* out, bool decode_payloads) {
  *out = ReplayResult{};
  std::vector<unsigned char> bytes;
  CARAC_RETURN_IF_ERROR(ReadWholeFile(path, "fact log", &bytes));

  WireReader r(bytes.data(), bytes.size());
  if (bytes.size() < kFileHeaderBytes) {
    // A crash during creation can leave a torn header; there is nothing
    // recoverable in it, so recovery starts from the snapshot alone.
    out->torn_tail = !bytes.empty();
    out->committed_bytes = 0;
    return util::Status::Ok();
  }
  char magic[8];
  uint32_t version = 0;
  uint32_t reserved = 0;
  r.GetBytes(magic, 8);
  r.GetU32(&version);
  r.GetU32(&reserved);
  if (std::memcmp(magic, kLogMagic, 8) != 0) {
    return Corrupt(path, 0, "bad magic (not a carac fact log)");
  }
  if (version != kFactLogFormatVersion) {
    return Corrupt(path, 8,
                   "format version " + std::to_string(version) +
                       " (this build reads only version " +
                       std::to_string(kFactLogFormatVersion) + ")");
  }
  out->committed_bytes = kFileHeaderBytes;

  ReplayEpoch pending;
  bool pending_records = false;  // Batch/symbol records since last commit.
  while (r.remaining() > 0) {
    const size_t record_start = r.pos();
    uint8_t tag = 0;
    uint32_t len = 0;
    if (!r.GetU8(&tag) || !r.GetU32(&len) || len > r.remaining()) {
      // Record head or payload cut short by EOF: torn tail.
      out->torn_tail = true;
      break;
    }
    if (tag != kBatchTag && tag != kSymbolsTag && tag != kCommitTag) {
      return Corrupt(path, record_start,
                     "unknown record tag " + std::to_string(tag));
    }
    std::vector<unsigned char> payload(len);
    r.GetBytes(payload.data(), len);
    const uint64_t computed = r.ChecksumSince(record_start);
    uint64_t stored = 0;
    if (!r.GetU64(&stored)) {
      out->torn_tail = true;  // Checksum itself cut short by EOF.
      break;
    }
    if (computed != stored) {
      return Corrupt(path, record_start, "record checksum mismatch");
    }

    if (!decode_payloads && tag != kCommitTag) {
      // Scan mode: the record is framed and checksummed; its contents
      // are not needed to locate the committed prefix.
      pending_records = true;
      continue;
    }
    WireReader p(payload.data(), payload.size());
    if (tag == kBatchTag) {
      uint32_t relation = 0;
      uint32_t arity = 0;
      uint32_t count = 0;
      if (!p.GetU32(&relation) || !p.GetU32(&arity) || !p.GetU32(&count)) {
        return Corrupt(path, record_start, "malformed batch record");
      }
      // The payload must hold exactly `count` facts of `arity` values.
      // Divide rather than multiply: count * arity * 8 can wrap.
      const uint64_t fact_bytes = static_cast<uint64_t>(arity) * 8;
      const bool sized = arity == 0 ? p.remaining() == 0
                                    : p.remaining() % fact_bytes == 0 &&
                                          p.remaining() / fact_bytes == count;
      if (!sized) {
        return Corrupt(path, record_start, "malformed batch record");
      }
      // Zero-arity facts take no payload bytes, so `count` is unbounded
      // by the record; they are all the one empty tuple, and a set holds
      // it at most once.
      if (arity == 0) count = std::min<uint32_t>(count, 1);
      ReplayBatch batch;
      batch.relation = relation;
      batch.facts.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        Tuple fact;
        p.GetValues(&fact, arity);
        batch.facts.push_back(std::move(fact));
      }
      pending.batches.push_back(std::move(batch));
      pending_records = true;
    } else if (tag == kSymbolsTag) {
      uint64_t start_index = 0;
      uint32_t count = 0;
      if (!p.GetU64(&start_index) || !p.GetU32(&count)) {
        return Corrupt(path, record_start, "malformed symbols record");
      }
      for (uint32_t i = 0; i < count; ++i) {
        std::string text;
        if (!p.GetString(&text)) {
          return Corrupt(path, record_start, "malformed symbols record");
        }
        pending.symbols.emplace_back(start_index + i, std::move(text));
      }
      if (p.remaining() != 0) {
        return Corrupt(path, record_start, "malformed symbols record");
      }
      pending_records = true;
    } else {  // kCommitTag
      uint64_t epoch = 0;
      if (!p.GetU64(&epoch) || p.remaining() != 0) {
        return Corrupt(path, record_start, "malformed commit record");
      }
      pending.epoch = epoch;
      pending.end_offset = r.pos();
      out->epochs.push_back(std::move(pending));
      pending = ReplayEpoch{};
      pending_records = false;
      out->committed_bytes = r.pos();
    }
  }
  // Unsealed records past the last commit are discarded: an epoch
  // either replays whole or not at all.
  if (pending_records) out->torn_tail = true;
  return util::Status::Ok();
}

}  // namespace carac::storage
