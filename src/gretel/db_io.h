// Fingerprint database persistence: train once, deploy everywhere.
//
// §7.1: "GRETEL's fingerprint generation is an offline process since these
// fingerprints are independent of the scale of the deployment."  This
// module serializes a trained FingerprintDb so the analyzer can load it in
// production without re-running the characterization.  The file embeds a
// hash of the API catalog it was trained against; loading against a
// different catalog fails instead of mismatching symbols.
//
// Format (integers big-endian):
//   magic   "GRTFDB02"
//   meta    u32 len, u32 crc32, body { hash u64 (FNV-1a over every catalog
//           API's display name), count u32 }
//   records u32 len, u32 crc32, body { count × record }
//   record  op u32, name (u16 len + bytes), sequence (u32 len + u16 each)
//
// Every section carries its own CRC32, so truncation or bit flips anywhere
// in the file are detected before any record is trusted — the loader never
// crashes and never returns a silently-wrong DB.  A file in the retired
// flat "GRTFDB01" layout (no CRCs) fails to load like any foreign file.
// Writes are atomic (tmp + fsync + rename).
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "gretel/fingerprint_db.h"

namespace gretel::core {

// Stable hash of the catalog's API surface.
std::uint64_t catalog_hash(const wire::ApiCatalog& catalog);

std::string encode_fingerprint_db(const FingerprintDb& db,
                                  const wire::ApiCatalog& catalog);

// Strict: nullopt on bad magic, catalog-hash mismatch, truncation, out-of-
// range API ids, or trailing garbage.  State sequences are recomputed from
// the catalog.
std::optional<FingerprintDb> decode_fingerprint_db(
    std::string_view data, const wire::ApiCatalog& catalog);

bool save_fingerprint_db(const std::string& path, const FingerprintDb& db,
                         const wire::ApiCatalog& catalog);
std::optional<FingerprintDb> load_fingerprint_db(
    const std::string& path, const wire::ApiCatalog& catalog);

}  // namespace gretel::core
