// Failure-mode fingerprints: a stable 64-bit signature of what the
// analyzer *concluded*, independent of how it got there.
//
// The fingerprint hashes a canonical serialization of a diagnosis set —
// fault kind, offending operation, matched-operation names, degraded
// flags, evidence gaps and the canonically-ordered cause list — and
// deliberately excludes everything presentation- or timing-flavored:
// detection timestamps, θ/β search internals, float scores/confidences,
// and probe_time_ms.  Two runs that reached the same diagnosis therefore
// fingerprint identically even across ingest batch sizes and scalar/SIMD
// kernel builds (the determinism contract), while any change in the *structure*
// of the conclusion (extra cause, weaker evidence, degraded flag) lands
// the run in a different failure-mode cluster.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "gretel/fingerprint_db.h"
#include "gretel/report.h"
#include "wire/api.h"

namespace gretel::campaign {

// FNV-1a over `s`.  Small, dependency-free, and stable by construction —
// the constants are part of the fingerprint's on-disk contract.
std::uint64_t fnv1a64(std::string_view s);

// Canonical (normalized) serialization of one diagnosis.  JSON-shaped so
// clusters can be eyeballed, but NOT the operator-facing to_json document:
// volatile fields are dropped and causes are re-ordered with
// core::cause_canonical_less before emission.
std::string canonical_report(const core::Diagnosis& d,
                             const wire::ApiCatalog& catalog,
                             const core::FingerprintDb& db);

// Fingerprint of a whole scenario's diagnosis set.  Canonical per-report
// strings are sorted before hashing, so report arrival order cannot
// perturb the signature.
// An empty set has a well-known fingerprint (hash of "[]").
std::uint64_t report_fingerprint(std::span<const core::Diagnosis> diagnoses,
                                 const wire::ApiCatalog& catalog,
                                 const core::FingerprintDb& db);

// Lower-case 16-digit hex rendering, the form used in reports and JSON.
std::string fingerprint_hex(std::uint64_t fp);

}  // namespace gretel::campaign
