#include "util/atomic_file.h"

#include <cstdio>
#include <memory>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace gretel::util {

namespace {
using FileHandle = std::unique_ptr<std::FILE, int (*)(std::FILE*)>;
}  // namespace

bool sync_parent_dir(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  return synced;
#else
  (void)path;
  return true;
#endif
}

bool write_file_atomic(const std::string& path, std::string_view data,
                       bool sync_dir) {
  const std::string tmp = path + ".tmp";
  {
    FileHandle f(std::fopen(tmp.c_str(), "wb"), &std::fclose);
    if (!f) return false;
    if ((!data.empty() &&
         std::fwrite(data.data(), 1, data.size(), f.get()) != data.size()) ||
        std::fflush(f.get()) != 0) {
      f.reset();
      std::remove(tmp.c_str());
      return false;
    }
#if defined(__unix__) || defined(__APPLE__)
    if (fsync(fileno(f.get())) != 0) {
      f.reset();
      std::remove(tmp.c_str());
      return false;
    }
#endif
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return !sync_dir || sync_parent_dir(path);
}

std::optional<std::string> read_file(const std::string& path) {
  FileHandle f(std::fopen(path.c_str(), "rb"), &std::fclose);
  if (!f) return std::nullopt;
  std::string data;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f.get())) > 0) {
    data.append(buf, n);
  }
  if (std::ferror(f.get())) return std::nullopt;
  return data;
}

}  // namespace gretel::util
