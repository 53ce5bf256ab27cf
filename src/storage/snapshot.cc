#include "storage/snapshot.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "storage/database.h"
#include "storage/wire.h"
#include "util/status.h"

namespace carac::storage {

namespace {

constexpr char kHeaderMagic[8] = {'C', 'A', 'R', 'A', 'C', 'S', 'N', 'P'};
constexpr char kFooterMagic[8] = {'C', 'A', 'R', 'A', 'C', 'E', 'N', 'D'};

bool WriteBytes(const void* data, size_t n, std::FILE* f) {
  return n == 0 || std::fwrite(data, 1, n, f) == n;
}

bool WriteChecksum(uint64_t checksum, std::FILE* f) {
  unsigned char sum[8];
  for (int i = 0; i < 8; ++i) sum[i] = (checksum >> (8 * i)) & 0xFF;
  return std::fwrite(sum, 1, 8, f) == 8;
}

/// Writes one section: its payload bytes followed by their checksum.
bool WriteSection(const WireBuf& buf, std::FILE* f) {
  return WriteBytes(buf.data(), buf.size(), f) &&
         WriteChecksum(buf.Checksum(), f);
}

util::Status Corrupt(const std::string& path, const std::string& what) {
  return util::Status::InvalidArgument("snapshot " + path + ": " + what);
}

}  // namespace

util::Status DatabaseSet::SaveSnapshot(const std::string& path) const {
  // Write to a sibling temp file and rename into place, so a crash
  // mid-write never leaves a half-snapshot under the published name.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return util::Status::Internal("cannot create snapshot file " + tmp);
  }
  bool write_ok = true;

  WireBuf buf;
  buf.PutBytes(kHeaderMagic, 8);
  buf.PutU32(kSnapshotFormatVersion);
  buf.PutU32(static_cast<uint32_t>(stores_.size()));
  buf.PutU64(epoch_);
  buf.PutU64(symbols_.size());
  write_ok &= WriteSection(buf, f);

  buf.Clear();
  for (size_t i = 0; i < symbols_.size(); ++i) {
    buf.PutString(symbols_.Lookup(kSymbolBase + static_cast<int64_t>(i)));
  }
  write_ok &= WriteSection(buf, f);

  for (size_t id = 0; id < stores_.size(); ++id) {
    const Relation& rel = *stores_[id].derived;
    const size_t num_values =
        static_cast<size_t>(rel.NumRows()) * rel.arity();

    WireBuf head;
    head.PutString(rel.name());
    head.PutU32(static_cast<uint32_t>(rel.arity()));
    head.PutU32(rel.NumRows());
    head.PutU32(rel.watermark());
    // Index declarations (v2): column and per-index KIND, sorted by
    // column so the bytes don't depend on declaration order (a reopened
    // set may have declared, then redeclared, in a different sequence).
    // Contents are rebuilt at open; the organization choice is state
    // worth keeping (statistics or hints picked it).
    std::vector<std::pair<uint32_t, uint8_t>> decls;
    decls.reserve(rel.NumIndexes());
    for (size_t i = 0; i < rel.NumIndexes(); ++i) {
      decls.emplace_back(static_cast<uint32_t>(rel.IndexAt(i).column()),
                         static_cast<uint8_t>(rel.IndexAt(i).kind()));
    }
    std::sort(decls.begin(), decls.end());
    head.PutU32(static_cast<uint32_t>(decls.size()));
    for (const auto& [column, kind] : decls) {
      head.PutU32(column);
      head.PutU8(kind);
    }
    WireBuf tail;
    tail.PutU32(static_cast<uint32_t>(edb_rows_[id].size()));
    for (RowId row : edb_rows_[id]) tail.PutU32(row);

    // The arena dominates the section; on a little-endian host its
    // in-memory bytes ARE the wire bytes, so stream them straight from
    // the relation — no staging copy of the database's largest buffers.
    // The section checksum chains across the three pieces (seeded
    // HashBytes ≡ one hash over their concatenation, which is what the
    // reader computes).
    uint64_t sum = util::HashBytes(head.data(), head.size());
    write_ok &= WriteBytes(head.data(), head.size(), f);
    if (HostIsLittleEndian()) {
      sum = util::HashBytes(rel.arena().data(), num_values * 8, sum);
      write_ok &= WriteBytes(rel.arena().data(), num_values * 8, f);
    } else {
      WireBuf values;
      values.PutValues(rel.arena().data(), num_values);
      sum = util::HashBytes(values.data(), values.size(), sum);
      write_ok &= WriteBytes(values.data(), values.size(), f);
    }
    sum = util::HashBytes(tail.data(), tail.size(), sum);
    write_ok &= WriteBytes(tail.data(), tail.size(), f);
    write_ok &= WriteChecksum(sum, f);
  }

  write_ok &= std::fwrite(kFooterMagic, 1, 8, f) == 8;
  write_ok &= std::fflush(f) == 0;
  write_ok &= std::fclose(f) == 0;
  if (!write_ok) {
    std::remove(tmp.c_str());
    return util::Status::Internal("short write saving snapshot to " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    return util::Status::Internal("cannot publish snapshot " + path + ": " +
                                  ec.message());
  }
  return util::Status::Ok();
}

util::Status DatabaseSet::OpenSnapshot(const std::string& path) {
  std::vector<unsigned char> bytes;
  CARAC_RETURN_IF_ERROR(ReadWholeFile(path, "snapshot", &bytes));

  WireReader r(bytes.data(), bytes.size());

  // Header.
  char magic[8];
  uint32_t version = 0;
  uint32_t num_relations = 0;
  uint64_t epoch = 0;
  uint64_t num_symbols = 0;
  uint64_t stored_sum = 0;
  size_t section_start = r.pos();
  if (!r.GetBytes(magic, 8) || std::memcmp(magic, kHeaderMagic, 8) != 0) {
    return Corrupt(path, "bad magic (not a carac snapshot)");
  }
  r.GetU32(&version);
  r.GetU32(&num_relations);
  r.GetU64(&epoch);
  r.GetU64(&num_symbols);
  uint64_t computed = r.ChecksumSince(section_start);
  if (!r.GetU64(&stored_sum)) return Corrupt(path, "truncated header");
  if (computed != stored_sum) return Corrupt(path, "header checksum mismatch");
  if (version != kSnapshotFormatVersion) {
    return Corrupt(path, "format version " + std::to_string(version) +
                             " (this build reads only version " +
                             std::to_string(kSnapshotFormatVersion) + ")");
  }

  // Symbols. Every count is checked against the bytes left before it
  // sizes an allocation: a checksum guards against damage, not against a
  // forged file, and a huge count would otherwise abort in reserve().
  // Each symbol takes at least its u32 length prefix.
  if (num_symbols > r.remaining() / 4) {
    return Corrupt(path, "symbol count " + std::to_string(num_symbols) +
                             " exceeds the file");
  }
  std::vector<std::string> symbols;
  symbols.reserve(num_symbols);
  section_start = r.pos();
  for (uint64_t i = 0; i < num_symbols; ++i) {
    std::string text;
    if (!r.GetString(&text)) return Corrupt(path, "truncated symbol table");
    symbols.push_back(std::move(text));
  }
  computed = r.ChecksumSince(section_start);
  if (!r.GetU64(&stored_sum) || computed != stored_sum) {
    return Corrupt(path, "symbol table checksum mismatch");
  }
  // The program source was re-parsed before this open, interning its
  // string constants; their ids live in the AST. The snapshot's table
  // must agree with that interning — symbol for symbol, as a prefix —
  // or every string constant would silently mean a different string
  // (the fact-log replay path has the same guard).
  if (symbols_.size() > symbols.size()) {
    return Corrupt(path, "the database interned " +
                             std::to_string(symbols_.size()) +
                             " symbols but the snapshot holds only " +
                             std::to_string(symbols.size()) +
                             " (snapshot from a different program?)");
  }
  for (size_t i = 0; i < symbols_.size(); ++i) {
    const std::string& current =
        symbols_.Lookup(kSymbolBase + static_cast<int64_t>(i));
    if (current != symbols[i]) {
      return Corrupt(path, "symbol id " + std::to_string(i) + " is \"" +
                               current + "\" in the database but \"" +
                               symbols[i] +
                               "\" in the snapshot (snapshot from a "
                               "different program?)");
    }
  }

  // Schema gate: an empty set adopts the snapshot's relations; a
  // populated one must already hold the identical schema.
  const bool adopt = stores_.empty();
  if (!adopt && stores_.size() != num_relations) {
    return Corrupt(path, "declares " + std::to_string(num_relations) +
                             " relations but the database has " +
                             std::to_string(stores_.size()));
  }

  // Relations. Contents are installed as each section verifies; a
  // failure part-way leaves the set partially overwritten (documented:
  // a failed open discards the set).
  for (uint32_t id = 0; id < num_relations; ++id) {
    section_start = r.pos();
    std::string name;
    uint32_t arity = 0;
    uint32_t num_rows = 0;
    uint32_t watermark = 0;
    uint32_t index_count = 0;
    if (!r.GetString(&name) || !r.GetU32(&arity) || !r.GetU32(&num_rows) ||
        !r.GetU32(&watermark) || !r.GetU32(&index_count)) {
      return Corrupt(path, "truncated relation header");
    }
    // Each declaration is a u32 column and a u8 kind.
    if (index_count > r.remaining() / 5) {
      return Corrupt(path, "truncated index declarations for " + name);
    }
    std::vector<std::pair<uint32_t, IndexKind>> index_decls;
    index_decls.reserve(index_count);
    for (uint32_t i = 0; i < index_count; ++i) {
      uint32_t column = 0;
      uint8_t kind = 0;
      if (!r.GetU32(&column) || !r.GetU8(&kind)) {
        return Corrupt(path, "truncated index declarations for " + name);
      }
      if (column >= arity || kind >= static_cast<uint8_t>(kNumIndexKinds)) {
        return Corrupt(path, "relation " + name +
                                 " has an invalid index declaration");
      }
      index_decls.emplace_back(column, static_cast<IndexKind>(kind));
    }
    const uint64_t num_values = static_cast<uint64_t>(num_rows) * arity;
    if (num_values > r.remaining() / 8) {
      return Corrupt(path, "relation " + name + " arena extends past EOF");
    }
    std::vector<Value> arena;
    r.GetValues(&arena, static_cast<size_t>(num_values));
    uint32_t edb_count = 0;
    std::vector<RowId> edb;
    if (!r.GetU32(&edb_count) || edb_count > r.remaining() / 4) {
      return Corrupt(path, "truncated relation " + name);
    }
    edb.reserve(edb_count);
    for (uint32_t i = 0; i < edb_count; ++i) {
      uint32_t row = 0;
      if (!r.GetU32(&row)) return Corrupt(path, "truncated relation " + name);
      edb.push_back(row);
    }
    computed = r.ChecksumSince(section_start);
    if (!r.GetU64(&stored_sum) || computed != stored_sum) {
      return Corrupt(path, "relation " + name + " checksum mismatch");
    }
    if (watermark > num_rows) {
      return Corrupt(path, "relation " + name + " watermark out of range");
    }
    for (RowId row : edb) {
      if (row >= num_rows) {
        return Corrupt(path, "relation " + name + " EDB row out of range");
      }
    }

    if (adopt) {
      AddRelation(name, arity);
    } else if (RelationName(id) != name || RelationArity(id) != arity) {
      return Corrupt(path, "schema mismatch at relation " +
                               std::to_string(id) + ": snapshot has " + name +
                               "/" + std::to_string(arity) +
                               ", database has " + RelationName(id) + "/" +
                               std::to_string(RelationArity(id)));
    }
    // The persisted per-index kinds are authoritative: a restore into an
    // engine-prepared set replaces any kind Prepare() chose, so a
    // mixed-kind database survives save/open byte-identically. Declared
    // BEFORE LoadContents so the rebuild below populates the right
    // organization once instead of building one and replacing it.
    if (indexing_enabled_) {
      for (const auto& [column, kind] : index_decls) {
        RedeclareIndex(id, column, kind);
      }
    }
    Store& store = stores_[id];
    store.derived->LoadContents(std::move(arena), num_rows, watermark);
    store.delta_new->Clear();
    store.delta_lo = store.delta_hi = store.derived->NumRows();
    edb_rows_[id] = std::move(edb);
  }

  if (!r.GetBytes(magic, 8) || std::memcmp(magic, kFooterMagic, 8) != 0 ||
      r.remaining() != 0) {
    return Corrupt(path, "missing footer (truncated or trailing bytes)");
  }

  symbols_.Restore(std::move(symbols));
  epoch_ = epoch;
  return util::Status::Ok();
}

}  // namespace carac::storage
