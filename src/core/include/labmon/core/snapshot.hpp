// Experiment snapshot cache — simulate once, replay everywhere.
//
// The paper's DDC archived every probe's raw output once and ran all
// analyses off the archive (§3.2). This layer is the reproduction's
// equivalent: a full ExperimentResult is persisted as a content-keyed
// binary snapshot — a versioned sidecar carrying ground truth, run stats,
// lab summaries, hardware totals and per-machine perf indices, then the
// trace as its user table, a chunk directory, the iteration rows and
// fixed-size chunks of LMTR1 sample ranges (trace/binary_io.hpp) — so the
// 16 bench binaries pay for one simulation and 15 snapshot loads instead
// of 16 simulations.
//
// Chunks make the codec parallel in both directions: Store encodes the
// chunks from the trace columns on every core, and Load reads the file in
// one sized read, checksums each chunk and decodes it straight into its
// disjoint row range of the TraceStore columns on every core, then adopts
// the columns in bulk (TraceStore::Adopt). The layout is independent of
// the worker count, so the bytes are too.
//
// Fingerprint scheme: FNV-1a over every behaviour-affecting field of the
// ExperimentConfig (campus models, collector schedule/policy/seed, prior
// life) plus kSnapshotFormatVersion. Output-invariant knobs (metrics,
// tracer, the structured fast path) are deliberately excluded. Any config
// edit or format bump therefore keys a different file; stale files are
// never silently reused.
//
// Invalidation rules: a snapshot is replayed only when magic, format
// version, fingerprint and every checksum match. Anything else — missing
// file, short file, flipped byte, codec error, foreign fingerprint — is a
// miss; RunCached warns (for real corruption), re-simulates, and
// atomically rewrites (write to a temp file, then rename). The header's
// FNV-1a checksum covers the head (sidecar, user table, chunk directory,
// iteration rows) and each directory entry carries its chunk body's
// FNV-1a, so single bit-flips anywhere in the stored file are detectable,
// not just ones that happen to break a varint.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "labmon/core/experiment.hpp"
#include "labmon/util/expected.hpp"

namespace labmon::core {

/// Bump on any layout change to the sidecar or the embedded trace codec —
/// old snapshot files then miss and are rewritten.
/// v2: payload checksum in the header; retry/fault fields in RunStats.
/// v3: chunked trace — user table, chunk directory (first sample, sample
/// count, byte length, FNV-1a per chunk), iteration rows, chunk bodies.
inline constexpr std::uint32_t kSnapshotFormatVersion = 3;

/// Samples per snapshot chunk (the last chunk holds the remainder). A
/// format constant, not a knob: it fixes the file layout, so the bytes do
/// not depend on the machine that wrote them.
inline constexpr std::size_t kSnapshotChunkSamples = 65536;

/// Version of the RNG draw protocol the simulation runs under. Mixed into
/// the fingerprint: the same config produces a *different* trace when the
/// draw protocol changes, so old snapshots must re-key exactly once per
/// scheme change.
/// v2: per-entity substreams (DeriveSeed) replacing the single serial
/// stream — the sharded engine's determinism scheme.
inline constexpr std::uint32_t kRngSchemeVersion = 2;

/// Content key of a config: hash of every behaviour-affecting field plus
/// the snapshot format version.
[[nodiscard]] std::uint64_t FingerprintConfig(const ExperimentConfig& config);

/// Serialises a full ExperimentResult (sidecar + chunked trace), encoding
/// the chunks on util::DefaultWorkerCount() workers.
[[nodiscard]] std::string SerializeExperimentResult(
    const ExperimentResult& result, std::uint64_t fingerprint);

/// Parses snapshot bytes; fails on magic/version/fingerprint mismatch or
/// any truncation/corruption. Chunks are checksummed and decoded on
/// util::DefaultWorkerCount() workers.
[[nodiscard]] util::Result<ExperimentResult> DeserializeExperimentResult(
    std::string_view bytes, std::uint64_t expected_fingerprint);

/// Directory of content-keyed snapshot files (<hex fingerprint>.lmsnap).
class SnapshotCache {
 public:
  explicit SnapshotCache(std::string directory);

  [[nodiscard]] const std::string& directory() const noexcept {
    return directory_;
  }
  [[nodiscard]] std::string PathFor(std::uint64_t fingerprint) const;
  /// True when a snapshot file exists for this fingerprint (it may still
  /// fail to load — corruption is detected by Load).
  [[nodiscard]] bool Contains(std::uint64_t fingerprint) const;

  [[nodiscard]] util::Result<ExperimentResult> Load(
      std::uint64_t fingerprint) const;
  /// Atomic write: serialises to "<path>.tmp", then renames over the final
  /// path, so readers never observe a half-written snapshot. Creates the
  /// directory if needed.
  [[nodiscard]] util::Result<bool> Store(std::uint64_t fingerprint,
                                         const ExperimentResult& result) const;

 private:
  std::string directory_;
};

}  // namespace labmon::core
