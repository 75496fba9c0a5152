// Deterministic crash injection for the durability layer.
//
// The kill-point recovery campaigns (src/campaign/recovery_campaign.cpp)
// must crash the process "at any instruction" — but an actual kill() per
// round would make the campaign a fork bomb and the failure non-portable.
// Instead the persist layer threads named fail points through its write
// paths: when the installed hook returns true for a point, the writer
// leaves exactly the partial on-disk artifact a real crash there would
// leave (a torn journal record, a half-written checkpoint temp file, ...)
// and throws SimulatedCrash.  The campaign catches the throw, constructs a
// fresh analyzer from the surviving files, and asserts the recovery
// invariant — the same code path a real restart takes.
//
// Points (see checkpoint.cpp / journal.cpp for the exact artifact each
// leaves behind):
//   "journal.append"          torn record at the segment tail
//   "checkpoint.mid_write"    truncated checkpoint temp file
//   "checkpoint.pre_rename"   complete temp file, rename never happened
//   "checkpoint.post_rename"  checkpoint durable, pruning never happened
//
// One point injects an I/O failure instead of a crash (nothing is thrown):
//   "journal.fsync_fail"      a journal record's fsync reports failure
//
// The hook is process-global and intended for single-threaded tests; the
// default (no hook) makes every fail point free and the durability paths
// crash-less.
#pragma once

#include <exception>
#include <functional>
#include <string_view>
#include <utility>

namespace gretel::persist {

struct SimulatedCrash : std::exception {
  const char* what() const noexcept override {
    return "simulated crash (persist fail point)";
  }
};

using CrashHook = std::function<bool(std::string_view point)>;

inline CrashHook& crash_hook_slot() {
  static CrashHook hook;
  return hook;
}

inline void set_crash_hook(CrashHook hook) {
  crash_hook_slot() = std::move(hook);
}

inline void clear_crash_hook() { crash_hook_slot() = nullptr; }

inline bool crash_requested(std::string_view point) {
  const auto& hook = crash_hook_slot();
  return hook && hook(point);
}

}  // namespace gretel::persist
