// GRTCKP02 contract: encode/decode round-trip over two fixed bodies,
// per-body CRC rejection, rejection of trailing bytes and of the older
// GRTCKP01 magic, prune-to-keep-N, corrupt-file fallback in the loader,
// and the crash fail-point artifacts.
#include "persist/checkpoint.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "persist/crash_hook.h"
#include "util/binio.h"

namespace gretel::persist {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  std::string path;
  TempDir() {
    path = (fs::temp_directory_path() /
            ("grtckp-test-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter()++)))
               .string();
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  static int& counter() {
    static int c = 0;
    return c;
  }
};

Checkpoint sample(std::uint64_t seq) {
  Checkpoint ckp;
  ckp.meta.checkpoint_seq = seq;
  ckp.meta.watermark_ns = 12'345'678'900 + static_cast<std::int64_t>(seq);
  ckp.meta.journal_next_seq = 7 + seq;
  ckp.meta.offered = 1000;
  ckp.meta.ingested = 990;
  ckp.meta.shed = 10;
  ckp.meta.shed_episodes = 2;
  ckp.meta.ticks = 41 + seq;
  ckp.meta.reports = 7 + seq;
  ckp.meta.reports_evicted = 1;
  ckp.meta.metrics = 123;
  ckp.meta.db_catalog_hash = 0xDEADBEEFCAFEF00Dull;
  ckp.meta.db_content_crc = 0x1234ABCDu;
  const char raw[] = "opaque\x00\x01\x02 analyzer blob";  // embedded NULs
  ckp.analyzer_state.assign(raw, sizeof raw - 1);
  return ckp;
}

void expect_equal(const Checkpoint& a, const Checkpoint& b) {
  EXPECT_EQ(a.meta.checkpoint_seq, b.meta.checkpoint_seq);
  EXPECT_EQ(a.meta.watermark_ns, b.meta.watermark_ns);
  EXPECT_EQ(a.meta.journal_next_seq, b.meta.journal_next_seq);
  EXPECT_EQ(a.meta.offered, b.meta.offered);
  EXPECT_EQ(a.meta.ingested, b.meta.ingested);
  EXPECT_EQ(a.meta.shed, b.meta.shed);
  EXPECT_EQ(a.meta.shed_episodes, b.meta.shed_episodes);
  EXPECT_EQ(a.meta.ticks, b.meta.ticks);
  EXPECT_EQ(a.meta.reports, b.meta.reports);
  EXPECT_EQ(a.meta.reports_evicted, b.meta.reports_evicted);
  EXPECT_EQ(a.meta.metrics, b.meta.metrics);
  EXPECT_EQ(a.meta.db_catalog_hash, b.meta.db_catalog_hash);
  EXPECT_EQ(a.meta.db_content_crc, b.meta.db_content_crc);
  EXPECT_EQ(a.analyzer_state, b.analyzer_state);
}

TEST(Checkpoint, EncodeDecodeRoundTrip) {
  const auto ckp = sample(3);
  const auto blob = encode_checkpoint(ckp);
  EXPECT_EQ(blob.substr(0, 8), "GRTCKP02");
  // Magic, then each body as u32 len · u32 crc · bytes: meta is 12 u64
  // words and the u32 DB CRC.
  EXPECT_EQ(blob.size(),
            8 + (8 + 12 * 8 + 4) + (8 + ckp.analyzer_state.size()));
  const auto back = decode_checkpoint(blob);
  ASSERT_TRUE(back.has_value());
  expect_equal(ckp, *back);
}

TEST(Checkpoint, EveryTruncationIsRejectedNotCrashing) {
  const auto blob = encode_checkpoint(sample(1));
  for (std::size_t len = 0; len < blob.size(); ++len) {
    EXPECT_FALSE(decode_checkpoint(std::string_view(blob).substr(0, len)))
        << "truncated to " << len << " of " << blob.size();
  }
}

TEST(Checkpoint, BitFlipsFailTheSectionCrc) {
  const auto blob = encode_checkpoint(sample(1));
  // Flip one bit in every byte past the magic: either a length field
  // breaks parsing or a body byte breaks its CRC.  Decode must
  // reject or — never — return silently different content.
  for (std::size_t i = 8; i < blob.size(); i += 7) {
    std::string mutated = blob;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x10);
    const auto back = decode_checkpoint(mutated);
    if (back.has_value()) {
      // Only acceptable if the flip landed somewhere truly ignored —
      // verify the payload still matches the original exactly.
      expect_equal(sample(1), *back);
    }
  }
}

TEST(Checkpoint, AnythingAfterTheAnalyzerBodyIsRejected) {
  // No writer emits a third body, so bytes past the analyzer body are
  // corruption, not a newer section to skip.
  auto blob = encode_checkpoint(sample(2));
  util::put_u32(blob, 0);
  EXPECT_FALSE(decode_checkpoint(blob));
}

TEST(Checkpoint, OlderLayoutMagicIsRejected) {
  // An otherwise valid file stamped GRTCKP01 is not read: the older
  // layout fails like any other undecodable file.
  auto blob = encode_checkpoint(sample(2));
  ASSERT_TRUE(decode_checkpoint(blob));
  blob.replace(0, 8, "GRTCKP01");
  EXPECT_FALSE(decode_checkpoint(blob));
}

TEST(Checkpoint, WriteLoadAndPruneKeepN) {
  TempDir dir;
  for (std::uint64_t seq = 0; seq < 5; ++seq)
    ASSERT_TRUE(write_checkpoint(dir.path, sample(seq), /*keep=*/3));
  const auto seqs = list_checkpoints(dir.path);
  ASSERT_EQ(seqs.size(), 3u);  // pruned to the newest 3
  EXPECT_EQ(seqs[0], 4u);
  EXPECT_EQ(seqs[2], 2u);
  std::size_t skipped = 99;
  const auto loaded = load_newest_checkpoint(dir.path, &skipped);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(skipped, 0u);
  expect_equal(sample(4), *loaded);
}

TEST(Checkpoint, LoaderFallsBackAcrossCorruptFiles) {
  TempDir dir;
  for (std::uint64_t seq = 0; seq < 3; ++seq)
    ASSERT_TRUE(write_checkpoint(dir.path, sample(seq), /*keep=*/10));
  // Corrupt the newest (truncate) and the middle (bit flip in the body).
  {
    std::ofstream f(checkpoint_path(dir.path, 2),
                    std::ios::binary | std::ios::trunc);
    f << "GRTCKP02torn";
  }
  {
    std::ifstream in(checkpoint_path(dir.path, 1), std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    data[data.size() / 2] = static_cast<char>(data[data.size() / 2] ^ 0x40);
    std::ofstream out(checkpoint_path(dir.path, 1),
                      std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
  std::size_t skipped = 0;
  const auto loaded = load_newest_checkpoint(dir.path, &skipped);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(skipped, 2u);
  expect_equal(sample(0), *loaded);
}

TEST(Checkpoint, EmptyDirLoadsNothing) {
  TempDir dir;
  std::size_t skipped = 7;
  EXPECT_FALSE(load_newest_checkpoint(dir.path, &skipped));
  EXPECT_EQ(skipped, 0u);
  EXPECT_FALSE(load_newest_checkpoint(dir.path + "/does-not-exist", nullptr));
}

TEST(Checkpoint, MidWriteCrashLeavesOnlyTheTmpArtifact) {
  TempDir dir;
  ASSERT_TRUE(write_checkpoint(dir.path, sample(0), 10));
  set_crash_hook(
      [](std::string_view p) { return p == "checkpoint.mid_write"; });
  EXPECT_THROW(write_checkpoint(dir.path, sample(1), 10), SimulatedCrash);
  clear_crash_hook();
  // The final file for seq 1 must not exist; seq 0 still loads.
  EXPECT_FALSE(fs::exists(checkpoint_path(dir.path, 1)));
  std::size_t skipped = 0;
  const auto loaded = load_newest_checkpoint(dir.path, &skipped);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->meta.checkpoint_seq, 0u);
}

TEST(Checkpoint, PreRenameCrashLeavesACompleteTmpButNoCheckpoint) {
  TempDir dir;
  set_crash_hook(
      [](std::string_view p) { return p == "checkpoint.pre_rename"; });
  EXPECT_THROW(write_checkpoint(dir.path, sample(0), 10), SimulatedCrash);
  clear_crash_hook();
  EXPECT_FALSE(fs::exists(checkpoint_path(dir.path, 0)));
  EXPECT_TRUE(list_checkpoints(dir.path).empty());
  // A retry after "reboot" succeeds over the leftover tmp file.
  ASSERT_TRUE(write_checkpoint(dir.path, sample(0), 10));
  EXPECT_TRUE(load_newest_checkpoint(dir.path, nullptr).has_value());
}

TEST(Checkpoint, PostRenameCrashLeavesAFullyValidCheckpoint) {
  TempDir dir;
  set_crash_hook(
      [](std::string_view p) { return p == "checkpoint.post_rename"; });
  EXPECT_THROW(write_checkpoint(dir.path, sample(5), 10), SimulatedCrash);
  clear_crash_hook();
  // The rename landed: recovery sees the checkpoint as if the write had
  // completed normally.
  std::size_t skipped = 0;
  const auto loaded = load_newest_checkpoint(dir.path, &skipped);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(skipped, 0u);
  expect_equal(sample(5), *loaded);
}

}  // namespace
}  // namespace gretel::persist
