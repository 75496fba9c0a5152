// Crash-safe whole-file I/O shared by everything that persists state: the
// fingerprint database (gretel/db_io.cpp) and the checkpoint writer
// (persist/checkpoint.cpp).
//
// write_file_atomic is the tmp+fsync+rename idiom: write a sibling temp
// file (same directory, so the rename cannot cross filesystems), flush it
// all the way to the device, then atomically rename over the destination.
// A crash at any instruction leaves either the old complete file or the
// new complete file — never a torn one.  The visible-at-`path` content is
// all-or-nothing; callers that need the *directory entry* durable too (a
// brand-new file that must survive power loss) also get the parent
// directory fsync'd when `sync_dir` is set.  Returns false when any step
// fails, that directory fsync included (the file may then already sit at
// `path`, but it is not known to survive a power loss).
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace gretel::util {

bool write_file_atomic(const std::string& path, std::string_view data,
                       bool sync_dir = false);

// fsyncs the directory holding `path`, so an entry just created or renamed
// there survives a power loss.  False when the directory cannot be opened
// or its fsync fails.
bool sync_parent_dir(const std::string& path);

// Whole file into memory; nullopt if it cannot be opened or read.
std::optional<std::string> read_file(const std::string& path);

}  // namespace gretel::util
