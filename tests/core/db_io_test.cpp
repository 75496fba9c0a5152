#include "gretel/db_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "util/binio.h"
#include "util/rng.h"

namespace gretel::core {
namespace {

using wire::ApiCatalog;
using wire::HttpMethod;
using wire::ServiceKind;

ApiCatalog small_catalog() {
  ApiCatalog cat;
  cat.add_rest(ServiceKind::Nova, HttpMethod::Post, "/v2.1/servers");
  cat.add_rest(ServiceKind::Nova, HttpMethod::Get, "/v2.1/servers/<ID>");
  cat.add_rpc(ServiceKind::NovaCompute, "nova-compute",
              "build_and_run_instance");
  cat.add_rest(ServiceKind::Glance, HttpMethod::Put, "/v2/images/<ID>/file");
  return cat;
}

FingerprintDb sample_db() {
  FingerprintDb db;
  Fingerprint a;
  a.op = wire::OpTemplateId(0);
  a.name = "vm-create";
  a.sequence = {wire::ApiId(0), wire::ApiId(2), wire::ApiId(1)};
  a.state_sequence = {wire::ApiId(0), wire::ApiId(2)};
  db.add(a);

  Fingerprint b;
  b.op = wire::OpTemplateId(1);
  b.name = "image-upload";
  b.sequence = {wire::ApiId(3), wire::ApiId(1)};
  b.state_sequence = {wire::ApiId(3)};
  db.add(b);
  return db;
}

TEST(DbIo, RoundTrip) {
  const auto catalog = small_catalog();
  const auto db = sample_db();
  const auto decoded =
      decode_fingerprint_db(encode_fingerprint_db(db, catalog), catalog);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ(decoded->get(0).name, "vm-create");
  EXPECT_EQ(decoded->get(0).sequence, db.get(0).sequence);
  EXPECT_EQ(decoded->get(1).op, wire::OpTemplateId(1));
}

TEST(DbIo, StateSequenceRecomputed) {
  const auto catalog = small_catalog();
  const auto decoded = decode_fingerprint_db(
      encode_fingerprint_db(sample_db(), catalog), catalog);
  ASSERT_TRUE(decoded.has_value());
  // POST(0), RPC(2) are state changes; GET(1) is not.
  EXPECT_EQ(decoded->get(0).state_sequence,
            (std::vector<wire::ApiId>{wire::ApiId(0), wire::ApiId(2)}));
}

TEST(DbIo, InvertedIndexRebuilt) {
  const auto catalog = small_catalog();
  const auto decoded = decode_fingerprint_db(
      encode_fingerprint_db(sample_db(), catalog), catalog);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->containing(wire::ApiId(1)).size(), 2u);
  EXPECT_EQ(decoded->containing(wire::ApiId(3)).size(), 1u);
  EXPECT_EQ(decoded->max_fingerprint_size(), 3u);
}

TEST(DbIo, RejectsCatalogMismatch) {
  const auto catalog = small_catalog();
  const auto data = encode_fingerprint_db(sample_db(), catalog);

  ApiCatalog other = small_catalog();
  other.add_rest(ServiceKind::Cinder, HttpMethod::Get, "/v2/<ID>/volumes");
  EXPECT_FALSE(decode_fingerprint_db(data, other).has_value());
}

TEST(DbIo, CatalogHashStable) {
  EXPECT_EQ(catalog_hash(small_catalog()), catalog_hash(small_catalog()));
}

TEST(DbIo, RejectsBadMagicAndTruncation) {
  const auto catalog = small_catalog();
  auto data = encode_fingerprint_db(sample_db(), catalog);
  for (std::size_t len = 0; len < data.size(); len += 3) {
    EXPECT_FALSE(
        decode_fingerprint_db(data.substr(0, len), catalog).has_value());
  }
  auto bad = data;
  bad[0] = 'x';
  EXPECT_FALSE(decode_fingerprint_db(bad, catalog).has_value());
  data += "y";
  EXPECT_FALSE(decode_fingerprint_db(data, catalog).has_value());
}

TEST(DbIo, RejectsOutOfRangeApiIds) {
  const auto catalog = small_catalog();
  FingerprintDb db;
  Fingerprint fp;
  fp.op = wire::OpTemplateId(0);
  fp.name = "bad";
  fp.sequence = {wire::ApiId(99)};  // not in catalog
  db.add(fp);
  EXPECT_FALSE(
      decode_fingerprint_db(encode_fingerprint_db(db, catalog), catalog)
          .has_value());
}

TEST(DbIo, CurrentFormatIsV2Sectioned) {
  const auto data = encode_fingerprint_db(sample_db(), small_catalog());
  EXPECT_EQ(data.substr(0, 8), "GRTFDB02");
}

TEST(DbIo, RejectsLegacyV1Format) {
  // The retired flat GRTFDB01 layout (magic, u64 catalog hash, u32 count,
  // then the record stream, no CRCs) fails to load like any foreign file,
  // even when its catalog hash and records are sound.
  const auto catalog = small_catalog();
  const auto db = sample_db();
  std::string v1 = "GRTFDB01";
  util::put_u64(v1, catalog_hash(catalog));
  util::put_u32(v1, static_cast<std::uint32_t>(db.size()));
  for (const auto& fp : db.all()) {
    util::put_u32(v1, fp.op.value());
    util::put_u16(v1, static_cast<std::uint16_t>(fp.name.size()));
    v1 += fp.name;
    util::put_u32(v1, static_cast<std::uint32_t>(fp.sequence.size()));
    for (auto api : fp.sequence) util::put_u16(v1, api.value());
  }
  EXPECT_FALSE(decode_fingerprint_db(v1, catalog).has_value());
}

// Corruption fuzz: decode must never crash and never return a DB that
// differs from the original — every truncation and every seeded bit flip
// either fails the section CRC (nullopt) or, if it misses all checked
// bytes, leaves the payload untouched.
TEST(DbIo, TruncationFuzzEveryLength) {
  const auto catalog = small_catalog();
  const auto data = encode_fingerprint_db(sample_db(), catalog);
  for (std::size_t len = 0; len < data.size(); ++len) {
    EXPECT_FALSE(decode_fingerprint_db(data.substr(0, len), catalog))
        << "truncated to " << len << " of " << data.size();
  }
}

TEST(DbIo, BitFlipFuzzNeverYieldsADifferentDb) {
  const auto catalog = small_catalog();
  const auto db = sample_db();
  const auto data = encode_fingerprint_db(db, catalog);
  util::Rng rng(0xF1155EEDull);
  for (int trial = 0; trial < 2000; ++trial) {
    auto mutated = data;
    const auto byte = rng.next_below(mutated.size());
    mutated[byte] = static_cast<char>(
        mutated[byte] ^ (1u << rng.next_below(8)));
    const auto decoded = decode_fingerprint_db(mutated, catalog);
    if (!decoded.has_value()) continue;  // rejected: the common case
    // Accepted: the flip must have been byte-for-byte inconsequential.
    ASSERT_EQ(decoded->size(), db.size()) << "byte " << byte;
    for (std::size_t i = 0; i < db.size(); ++i) {
      EXPECT_EQ(decoded->get(i).name, db.get(i).name) << "byte " << byte;
      EXPECT_EQ(decoded->get(i).sequence, db.get(i).sequence)
          << "byte " << byte;
    }
  }
}

TEST(DbIo, GarbageTailFuzz) {
  // Random garbage appended past a valid image must be rejected (the
  // section lengths pin the exact payload size).
  const auto catalog = small_catalog();
  const auto data = encode_fingerprint_db(sample_db(), catalog);
  util::Rng rng(0x7A11F00Dull);
  for (int trial = 0; trial < 200; ++trial) {
    auto mutated = data;
    const auto extra = 1 + rng.next_below(17);
    for (std::size_t i = 0; i < extra; ++i)
      mutated.push_back(static_cast<char>(rng.next_below(256)));
    EXPECT_FALSE(decode_fingerprint_db(mutated, catalog));
  }
}

TEST(DbIo, FileRoundTrip) {
  const std::string path = "/tmp/gretel_db_io_test.db";
  const auto catalog = small_catalog();
  ASSERT_TRUE(save_fingerprint_db(path, sample_db(), catalog));
  const auto loaded = load_fingerprint_db(path, catalog);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 2u);
  std::remove(path.c_str());
  EXPECT_FALSE(load_fingerprint_db(path, catalog).has_value());
}

TEST(DbIo, SaveIsAtomicOverExistingFile) {
  // The save must replace a pre-existing (here: corrupt) database in one
  // atomic step and leave no temp-file residue behind.
  const std::string path = "/tmp/gretel_db_io_atomic_test.db";
  const auto catalog = small_catalog();
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("garbage, not a fingerprint db", f);
    std::fclose(f);
  }
  ASSERT_FALSE(load_fingerprint_db(path, catalog).has_value());

  ASSERT_TRUE(save_fingerprint_db(path, sample_db(), catalog));
  const auto loaded = load_fingerprint_db(path, catalog);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 2u);

  // No .tmp sibling survives a successful save.
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp) std::fclose(tmp);
  std::remove(path.c_str());
}

TEST(DbIo, SaveFailureLeavesExistingFileIntact) {
  // An unwritable temp location (the parent directory does not exist)
  // fails the save up front — and cannot have clobbered anything.
  const auto catalog = small_catalog();
  EXPECT_FALSE(save_fingerprint_db("/tmp/gretel_no_such_dir/db.bin",
                                   sample_db(), catalog));
}

}  // namespace
}  // namespace gretel::core
