#include "gretel/db_io.h"

#include "util/atomic_file.h"
#include "util/binio.h"
#include "util/crc32.h"
#include "util/hash.h"

namespace gretel::core {

namespace {

// v2 (current): every section is length-prefixed and CRC-checked, so a
// flipped bit or a torn tail is detected before any record is trusted.
//   magic    "GRTFDB02"
//   meta     u32 len, u32 crc32, bytes { u64 catalog-hash, u32 count }
//   records  u32 len, u32 crc32, bytes { count × record }
//   record:  op u32, name (u16 len + bytes), sequence (u32 len + u16 each)
constexpr std::string_view kMagicV2 = "GRTFDB02";

void put_section(std::string& out, std::string_view body) {
  util::put_u32(out, static_cast<std::uint32_t>(body.size()));
  util::put_u32(out, util::crc32(body));
  out += body;
}

bool pop_section(std::string_view& in, std::string_view& body) {
  std::uint32_t len = 0;
  std::uint32_t crc = 0;
  if (!util::get_u32(in, len) || !util::get_u32(in, crc) || in.size() < len)
    return false;
  body = in.substr(0, len);
  in.remove_prefix(len);
  return util::crc32(body) == crc;
}

void encode_records(std::string& out, const FingerprintDb& db) {
  for (const auto& fp : db.all()) {
    util::put_u32(out, fp.op.value());
    util::put_u16(out, static_cast<std::uint16_t>(fp.name.size()));
    out += fp.name.substr(0, 0xFFFF);
    util::put_u32(out, static_cast<std::uint32_t>(fp.sequence.size()));
    for (auto api : fp.sequence) util::put_u16(out, api.value());
  }
}

// The record stream of the records section.
std::optional<FingerprintDb> decode_records(std::string_view data,
                                            std::uint32_t count,
                                            const wire::ApiCatalog& catalog) {
  FingerprintDb db;
  for (std::uint32_t i = 0; i < count; ++i) {
    Fingerprint fp;
    std::uint32_t op = 0;
    std::uint16_t name_len = 0;
    std::uint32_t seq_len = 0;
    if (!util::get_u32(data, op) || !util::get_u16(data, name_len) ||
        data.size() < name_len) {
      return std::nullopt;
    }
    fp.op = wire::OpTemplateId(op);
    fp.name = std::string(data.substr(0, name_len));
    data.remove_prefix(name_len);
    if (!util::get_u32(data, seq_len)) return std::nullopt;
    fp.sequence.reserve(seq_len);
    for (std::uint32_t k = 0; k < seq_len; ++k) {
      std::uint16_t api = 0;
      if (!util::get_u16(data, api)) return std::nullopt;
      if (api >= catalog.size()) return std::nullopt;  // foreign catalog
      fp.sequence.emplace_back(api);
    }
    // State sequences are derived data; recompute against the catalog.
    for (auto api : fp.sequence) {
      if (catalog.get(api).state_change()) fp.state_sequence.push_back(api);
    }
    db.add(std::move(fp));
  }
  if (!data.empty()) return std::nullopt;
  return db;
}

std::optional<FingerprintDb> decode_v2(std::string_view data,
                                       const wire::ApiCatalog& catalog) {
  std::string_view meta;
  std::string_view records;
  if (!pop_section(data, meta) || !pop_section(data, records) ||
      !data.empty()) {
    return std::nullopt;
  }
  std::uint64_t hash = 0;
  std::uint32_t count = 0;
  if (!util::get_u64(meta, hash) || hash != catalog_hash(catalog) ||
      !util::get_u32(meta, count) || !meta.empty()) {
    return std::nullopt;
  }
  return decode_records(records, count, catalog);
}

}  // namespace

std::uint64_t catalog_hash(const wire::ApiCatalog& catalog) {
  std::uint64_t h = util::kFnv1a64Offset;
  for (const auto& api : catalog.all()) {
    h = util::fnv1a64(api.display_name(), h);
    h = util::fnv1a64_step(h, 0x1F);  // name separator
  }
  return h;
}

std::string encode_fingerprint_db(const FingerprintDb& db,
                                  const wire::ApiCatalog& catalog) {
  std::string out;
  out += kMagicV2;
  std::string meta;
  util::put_u64(meta, catalog_hash(catalog));
  util::put_u32(meta, static_cast<std::uint32_t>(db.size()));
  put_section(out, meta);
  std::string records;
  encode_records(records, db);
  put_section(out, records);
  return out;
}

std::optional<FingerprintDb> decode_fingerprint_db(
    std::string_view data, const wire::ApiCatalog& catalog) {
  if (data.starts_with(kMagicV2)) {
    data.remove_prefix(kMagicV2.size());
    return decode_v2(data, catalog);
  }
  return std::nullopt;
}

bool save_fingerprint_db(const std::string& path, const FingerprintDb& db,
                         const wire::ApiCatalog& catalog) {
  return util::write_file_atomic(path,
                                 encode_fingerprint_db(db, catalog));
}

std::optional<FingerprintDb> load_fingerprint_db(
    const std::string& path, const wire::ApiCatalog& catalog) {
  const auto data = util::read_file(path);
  if (!data) return std::nullopt;
  return decode_fingerprint_db(*data, catalog);
}

}  // namespace gretel::core
