#include "campaign/fingerprint.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "gretel/json_export.h"
#include "util/hash.h"

namespace gretel::campaign {

std::string canonical_report(const core::Diagnosis& d,
                             const wire::ApiCatalog& catalog,
                             const core::FingerprintDb& db) {
  std::string out;
  out += "{\"kind\":\"";
  out += d.fault.kind == core::FaultKind::Operational ? "operational"
                                                      : "performance";
  out += "\",\"api\":\"";
  out += core::json_escape(catalog.get(d.fault.offending_api).display_name());
  out += '"';

  // Matched operations by *name*, sorted: the match set is a set, and DB
  // index order is a training artifact, not part of the conclusion.
  std::vector<std::string> matched;
  matched.reserve(d.fault.matched_fingerprints.size());
  for (auto idx : d.fault.matched_fingerprints)
    matched.push_back(db.get(idx).name);
  std::sort(matched.begin(), matched.end());
  out += ",\"matched\":[";
  for (std::size_t i = 0; i < matched.size(); ++i) {
    if (i) out += ',';
    out += '"';
    out += core::json_escape(matched[i]);
    out += '"';
  }
  out += ']';

  if (d.fault.latency) {
    out += ",\"latency\":\"";
    out += d.fault.latency->alarm.direction == detect::ShiftDirection::Up
               ? "up"
               : "down";
    out += '"';
  }
  if (d.fault.degraded_confidence) out += ",\"degraded_confidence\":true";

  out += ",\"root_cause\":{";
  bool first = true;
  auto flag = [&](const char* name) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += name;
    out += "\":true";
  };
  if (d.root_cause.expanded_search) flag("expanded_search");
  if (d.root_cause.degraded) flag("degraded");
  if (d.root_cause.monitoring_degraded) flag("monitoring_degraded");
  if (d.root_cause.stale_series) {
    if (!first) out += ',';
    first = false;
    out += "\"stale_series\":";
    out += std::to_string(d.root_cause.stale_series);
  }

  // Evidence gaps as (node, dependency, status), deduplicated upstream;
  // sorted here because gap discovery order follows probe scheduling.
  auto gaps = d.root_cause.evidence_gaps;
  std::sort(gaps.begin(), gaps.end(), [](const auto& a, const auto& b) {
    if (a.node.value() != b.node.value())
      return a.node.value() < b.node.value();
    if (a.dependency != b.dependency) return a.dependency < b.dependency;
    return static_cast<std::uint8_t>(a.status) <
           static_cast<std::uint8_t>(b.status);
  });
  if (!gaps.empty()) {
    if (!first) out += ',';
    first = false;
    out += "\"gaps\":[";
    for (std::size_t i = 0; i < gaps.size(); ++i) {
      if (i) out += ',';
      out += "{\"node\":";
      out += std::to_string(gaps[i].node.value());
      out += ",\"dependency\":\"";
      out += core::json_escape(gaps[i].dependency);
      out += "\",\"status\":\"";
      out += monitor::to_string(gaps[i].status);
      out += "\"}";
    }
    out += ']';
  }

  // Causes in canonical order (kind, node, detail, evidence), serialized
  // through the same append_cause_json vocabulary as the operator export
  // but with score/confidence-free ordering.  append_cause_json itself
  // emits `confidence` for weak evidence; that value is derived one-to-one
  // from the evidence status, so it cannot introduce volatility.
  auto causes = d.root_cause.causes;
  std::sort(causes.begin(), causes.end(), core::cause_canonical_less);
  if (!first) out += ',';
  out += "\"causes\":[";
  for (std::size_t i = 0; i < causes.size(); ++i) {
    if (i) out += ',';
    core::append_cause_json(out, causes[i]);
  }
  out += "]}}";
  return out;
}

std::uint64_t report_fingerprint(std::span<const core::Diagnosis> diagnoses,
                                 const wire::ApiCatalog& catalog,
                                 const core::FingerprintDb& db) {
  std::vector<std::string> canon;
  canon.reserve(diagnoses.size());
  for (const auto& d : diagnoses)
    canon.push_back(canonical_report(d, catalog, db));
  std::sort(canon.begin(), canon.end());
  std::string all = "[";
  for (std::size_t i = 0; i < canon.size(); ++i) {
    if (i) all += ',';
    all += canon[i];
  }
  all += ']';
  return util::fnv1a64(all);
}

std::string fingerprint_hex(std::uint64_t fp) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

}  // namespace gretel::campaign
