#include "monitor/resource_stream.h"

#include <algorithm>

#include "util/binio.h"

namespace gretel::monitor {

std::optional<ResourceAlarm> ResourceAnomalyStream::observe(
    wire::NodeId node, net::ResourceKind kind, double t_seconds,
    double value) {
  auto& detector = detectors_.try_emplace(key(node, kind), params_)
                       .first->second;
  ++samples_;
  const auto alarm = detector.observe(t_seconds, value);
  if (!alarm) return std::nullopt;
  ResourceAlarm out{node, kind, *alarm};
  alarms_.push_back(out);
  return out;
}

void ResourceAnomalyStream::save_state(std::string& out) const {
  std::vector<std::uint32_t> keys;
  keys.reserve(detectors_.size());
  for (const auto& [k, det] : detectors_) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  util::put_u32(out, static_cast<std::uint32_t>(keys.size()));
  for (std::uint32_t k : keys) {
    util::put_u32(out, k);
    util::put_bytes(out, detect::LevelShiftDetector::kName);
    std::string blob;
    detectors_.at(k).save_state(blob);
    util::put_bytes(out, blob);
  }
  util::put_u32(out, static_cast<std::uint32_t>(alarms_.size()));
  for (const ResourceAlarm& a : alarms_) {
    util::put_u8(out, a.node.value());
    util::put_u8(out, static_cast<std::uint8_t>(a.kind));
    util::put_f64(out, a.alarm.t_seconds);
    util::put_f64(out, a.alarm.value);
    util::put_f64(out, a.alarm.baseline);
    util::put_f64(out, a.alarm.magnitude);
    util::put_u8(out, a.alarm.direction == detect::ShiftDirection::Up ? 0
                                                                      : 1);
  }
  util::put_u64(out, samples_);
}

bool ResourceAnomalyStream::load_state(std::string_view& in) {
  const auto reset_all = [this] {
    detectors_.clear();
    alarms_.clear();
    samples_ = 0;
  };
  reset_all();
  constexpr std::uint32_t kMaxElems = 1u << 24;

  std::uint32_t n_det = 0;
  if (!util::get_u32(in, n_det) || n_det > kMaxElems) return false;
  for (std::uint32_t i = 0; i < n_det; ++i) {
    std::uint32_t k = 0;
    std::string_view name;
    std::string_view blob;
    if (!util::get_u32(in, k) || !util::get_bytes(in, name) ||
        !util::get_bytes(in, blob)) {
      reset_all();
      return false;
    }
    detect::LevelShiftDetector det(params_);
    if (name != detect::LevelShiftDetector::kName || !det.load_state(blob) ||
        !blob.empty()) {
      reset_all();
      return false;
    }
    detectors_.emplace(k, std::move(det));
  }

  std::uint32_t n_alarms = 0;
  if (!util::get_u32(in, n_alarms) || n_alarms > kMaxElems) {
    reset_all();
    return false;
  }
  for (std::uint32_t i = 0; i < n_alarms; ++i) {
    std::uint8_t node = 0;
    std::uint8_t kind = 0;
    std::uint8_t dir = 0;
    ResourceAlarm a;
    if (!util::get_u8(in, node) || !util::get_u8(in, kind) ||
        !util::get_f64(in, a.alarm.t_seconds) ||
        !util::get_f64(in, a.alarm.value) ||
        !util::get_f64(in, a.alarm.baseline) ||
        !util::get_f64(in, a.alarm.magnitude) || !util::get_u8(in, dir)) {
      reset_all();
      return false;
    }
    a.node = wire::NodeId(node);
    a.kind = static_cast<net::ResourceKind>(kind);
    a.alarm.direction = dir == 0 ? detect::ShiftDirection::Up
                                 : detect::ShiftDirection::Down;
    alarms_.push_back(a);
  }

  std::uint64_t samples = 0;
  if (!util::get_u64(in, samples)) {
    reset_all();
    return false;
  }
  samples_ = static_cast<std::size_t>(samples);
  return true;
}

std::vector<ResourceAlarm> ResourceAnomalyStream::alarms_for(
    wire::NodeId node, double from_s, double to_s) const {
  std::vector<ResourceAlarm> out;
  for (const auto& a : alarms_) {
    if (a.node == node && a.alarm.t_seconds >= from_s &&
        a.alarm.t_seconds < to_s) {
      out.push_back(a);
    }
  }
  return out;
}

}  // namespace gretel::monitor
