#include "persist/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "persist/crash_hook.h"
#include "util/atomic_file.h"
#include "util/binio.h"
#include "util/crc32.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace gretel::persist {

namespace {

constexpr std::string_view kMagic = "GRTCKP02";
constexpr std::string_view kPrefix = "checkpoint-";
constexpr std::string_view kSuffix = ".grtckp";

void put_body(std::string& out, std::string_view body) {
  util::put_u32(out, static_cast<std::uint32_t>(body.size()));
  util::put_u32(out, util::crc32(body));
  out += body;
}

bool pop_body(std::string_view& in, std::string_view& body) {
  std::uint32_t len = 0;
  std::uint32_t crc = 0;
  if (!util::get_u32(in, len) || !util::get_u32(in, crc) || in.size() < len)
    return false;
  body = in.substr(0, len);
  in.remove_prefix(len);
  return util::crc32(body) == crc;
}

std::string encode_meta(const CheckpointMeta& m) {
  std::string out;
  util::put_u64(out, m.checkpoint_seq);
  util::put_i64(out, m.watermark_ns);
  util::put_u64(out, m.journal_next_seq);
  util::put_u64(out, m.offered);
  util::put_u64(out, m.ingested);
  util::put_u64(out, m.shed);
  util::put_u64(out, m.shed_episodes);
  util::put_u64(out, m.ticks);
  util::put_u64(out, m.reports);
  util::put_u64(out, m.reports_evicted);
  util::put_u64(out, m.metrics);
  util::put_u64(out, m.db_catalog_hash);
  util::put_u32(out, m.db_content_crc);
  return out;
}

bool decode_meta(std::string_view in, CheckpointMeta& m) {
  return util::get_u64(in, m.checkpoint_seq) &&
         util::get_i64(in, m.watermark_ns) &&
         util::get_u64(in, m.journal_next_seq) &&
         util::get_u64(in, m.offered) && util::get_u64(in, m.ingested) &&
         util::get_u64(in, m.shed) && util::get_u64(in, m.shed_episodes) &&
         util::get_u64(in, m.ticks) && util::get_u64(in, m.reports) &&
         util::get_u64(in, m.reports_evicted) &&
         util::get_u64(in, m.metrics) &&
         util::get_u64(in, m.db_catalog_hash) &&
         util::get_u32(in, m.db_content_crc) && in.empty();
}

}  // namespace

std::string encode_checkpoint(const Checkpoint& ckp) {
  std::string out;
  out += kMagic;
  put_body(out, encode_meta(ckp.meta));
  put_body(out, ckp.analyzer_state);
  return out;
}

std::optional<Checkpoint> decode_checkpoint(std::string_view data) {
  if (!data.starts_with(kMagic)) return std::nullopt;
  data.remove_prefix(kMagic.size());
  Checkpoint ckp;
  std::string_view meta;
  std::string_view analyzer;
  if (!pop_body(data, meta) || !decode_meta(meta, ckp.meta) ||
      !pop_body(data, analyzer) || !data.empty())
    return std::nullopt;
  ckp.analyzer_state.assign(analyzer);
  return ckp;
}

std::string checkpoint_path(const std::string& dir, std::uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%020llu",
                static_cast<unsigned long long>(seq));
  return dir + "/" + std::string(kPrefix) + buf + std::string(kSuffix);
}

bool write_checkpoint(const std::string& dir, const Checkpoint& ckp,
                      std::size_t keep) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string data = encode_checkpoint(ckp);
  const std::string path = checkpoint_path(dir, ckp.meta.checkpoint_seq);

  // Fail points: a crash mid-write leaves a truncated .tmp (the loader
  // never reads temp files, and the atomic-rename idiom means the
  // destination is untouched); pre-rename leaves a complete orphaned .tmp;
  // post-rename leaves the checkpoint durable but old files unpruned.
  if (crash_requested("checkpoint.mid_write")) {
    const std::string tmp = path + ".tmp";
    if (std::FILE* f = std::fopen(tmp.c_str(), "wb")) {
      std::fwrite(data.data(), 1, data.size() / 2, f);
      std::fclose(f);
    }
    throw SimulatedCrash{};
  }
  if (crash_requested("checkpoint.pre_rename")) {
    const std::string tmp = path + ".tmp";
    if (std::FILE* f = std::fopen(tmp.c_str(), "wb")) {
      std::fwrite(data.data(), 1, data.size(), f);
      std::fclose(f);
    }
    throw SimulatedCrash{};
  }
  if (!util::write_file_atomic(path, data, /*sync_dir=*/true)) return false;
  if (crash_requested("checkpoint.post_rename")) throw SimulatedCrash{};

  // Prune all but the newest `keep`.  The writer numbers each checkpoint
  // past the files it found (restore() does so on a cold start), so the
  // one just written is never pruned.
  auto seqs = list_checkpoints(dir);
  for (std::size_t i = keep; i < seqs.size(); ++i) {
    std::filesystem::remove(checkpoint_path(dir, seqs[i]), ec);
  }
  return true;
}

std::vector<std::uint64_t> list_checkpoints(const std::string& dir) {
  std::vector<std::uint64_t> seqs;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return seqs;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= kPrefix.size() + kSuffix.size() ||
        name.compare(0, kPrefix.size(), kPrefix) != 0 ||
        name.compare(name.size() - kSuffix.size(), kSuffix.size(),
                     kSuffix) != 0) {
      continue;
    }
    const std::string digits = name.substr(
        kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    seqs.push_back(std::strtoull(digits.c_str(), nullptr, 10));
  }
  std::sort(seqs.rbegin(), seqs.rend());
  return seqs;
}

std::optional<Checkpoint> load_newest_checkpoint(
    const std::string& dir, std::size_t* corrupt_skipped) {
  if (corrupt_skipped) *corrupt_skipped = 0;
  for (std::uint64_t seq : list_checkpoints(dir)) {
    const auto data = util::read_file(checkpoint_path(dir, seq));
    if (data) {
      if (auto ckp = decode_checkpoint(*data)) return ckp;
    }
    if (corrupt_skipped) ++*corrupt_skipped;
  }
  return std::nullopt;
}

}  // namespace gretel::persist
