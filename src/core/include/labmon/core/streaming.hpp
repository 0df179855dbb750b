// Streaming campaign engine — the full experiment in O(block) memory.
//
// StreamingExperiment::Run drives the same per-lab collection slice as
// Experiment::Run, but collection seals fixed-size, iteration-aligned
// trace blocks as they fill instead of materialising each lab's trace:
// blocks either stay in memory as a sealed block list or spill to disk as
// segments in the configured spill codec (LMSG2 by default;
// trace/segment.hpp, trace/spill_codec.hpp). The merge phase then re-streams
// every lab through trace::StreamMergeBlocks and folds the merged blocks
// straight into analysis::StreamingAnalysis, so the campaign's peak
// memory is bounded by block size + per-machine analysis state — it does
// not grow with the simulated horizon. The analysis output is
// bit-identical to Experiment::Run + the materialised pipeline (pinned by
// tests/core/test_streaming_determinism).
//
// With spilling enabled every finished lab is also a checkpoint: its
// segment plus a small sidecar (config fingerprint, per-lab run stats and
// ground truth) written atomically after the segment is complete. A
// killed campaign restarted with `resume = true` re-simulates only the
// labs whose checkpoint is missing or invalid and re-streams the rest
// from disk, reproducing the exact same result.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "labmon/analysis/stream_fold.hpp"
#include "labmon/core/experiment.hpp"
#include "labmon/obs/jsonl.hpp"
#include "labmon/trace/block.hpp"
#include "labmon/trace/spill_codec.hpp"

namespace labmon::core {

struct StreamingOptions {
  /// Sealed-block capacity for collection spill and the merged stream.
  std::size_t block_samples = trace::kDefaultBlockSamples;
  /// Spill directory for per-lab segments + checkpoint sidecars; empty
  /// keeps sealed blocks in memory (still O(block) during the merge, but
  /// collection holds every sealed block).
  std::string spill_dir;
  /// Reuse valid per-lab checkpoints found in `spill_dir` instead of
  /// re-simulating those labs (requires spilling).
  bool resume = false;
  /// On-disk codec for newly written spill segments (trace/spill_codec.hpp).
  /// Read-back always dispatches on each segment's own magic, so a resumed
  /// campaign may mix codecs freely — the codec is deliberately excluded
  /// from the config fingerprint and the decoded streams are bit-identical
  /// either way.
  trace::SpillCodecId spill_codec = trace::kDefaultSpillCodec;
  /// Online anomaly detection: |z| threshold on per-machine memory load
  /// and CPU idle deltas (warm-up: analysis::AnomalyOptions::min_samples).
  /// 0 disables the detector.
  double anomaly_threshold = 0.0;
  /// Optional JSONL sink for anomaly records (not owned).
  obs::JsonlWriter* anomaly_writer = nullptr;

  // --- PipelinedExperiment only (ignored by StreamingExperiment) ---

  /// Capacity of the bounded staging ring between the shard collectors and
  /// the merge stage (blocks). Small rings bound memory and apply
  /// backpressure to fast shards; output is identical at any capacity.
  std::size_t ring_capacity = 64;
  /// Worker budget for the parallel per-front merge sort engaged when the
  /// staging ring backs up. 0 picks a small hardware-derived default.
  std::size_t merge_sort_workers = 0;
};

/// Pipeline health counters from a PipelinedExperiment run (all zero for
/// StreamingExperiment). Mirrored into obs::DefaultRegistry gauges under
/// labmon_pipeline_*.
struct PipelineStats {
  std::uint64_t staged_blocks = 0;      ///< blocks pushed through the ring
  std::uint64_t ring_push_stalls = 0;   ///< producer waits (ring full)
  std::uint64_t ring_pop_stalls = 0;    ///< merge waits (ring empty)
  double ring_push_wait_s = 0.0;
  double ring_pop_wait_s = 0.0;
  std::size_t ring_peak_occupancy = 0;
  std::size_t ring_capacity = 0;
  /// Peak blocks buffered inside the merge frontier (merge lag).
  std::size_t merge_lag_peak_blocks = 0;
  std::uint64_t arena_acquired = 0;  ///< block acquisitions (all pools)
  std::uint64_t arena_reused = 0;    ///< served from a recycling pool
  double arena_reuse_ratio = 0.0;
  double wall_s = 0.0;           ///< whole run
  double pipeline_wall_s = 0.0;  ///< overlapped collect/merge/fold region
  /// (wall_s - pipeline_wall_s) / wall_s — time outside the overlapped
  /// region (fleet build, result assembly).
  double serial_fraction = 0.0;
};

/// Spill codec accounting for one run: the encode side sums every segment
/// writer (shard workers compress before bytes hit disk), the decode side
/// sums every segment read-back (the merge re-stream and resume replay).
/// All zeros when spilling is disabled. Mirrored into obs gauges under
/// labmon_spill_*.
struct SpillCompressionStats {
  std::string codec;  ///< codec newly written segments used ("" = no spill)
  std::uint64_t segments = 0;       ///< segment files written this run
  std::uint64_t segment_bytes = 0;  ///< on-disk bytes incl. framing
  std::uint64_t blocks_encoded = 0;
  std::uint64_t samples_encoded = 0;
  std::uint64_t raw_bytes_encoded = 0;      ///< columnar in-memory footprint
  std::uint64_t payload_bytes_encoded = 0;  ///< encoded payload bytes
  double encode_s = 0.0;
  std::uint64_t blocks_decoded = 0;
  std::uint64_t samples_decoded = 0;
  std::uint64_t raw_bytes_decoded = 0;
  std::uint64_t payload_bytes_decoded = 0;
  double decode_s = 0.0;

  /// Raw columnar bytes per encoded payload byte (0 when nothing spilled).
  [[nodiscard]] double CompressionRatio() const noexcept {
    return payload_bytes_encoded != 0
               ? static_cast<double>(raw_bytes_encoded) /
                     static_cast<double>(payload_bytes_encoded)
               : 0.0;
  }
  [[nodiscard]] double EncodeNsPerSample() const noexcept {
    return samples_encoded != 0
               ? encode_s * 1e9 / static_cast<double>(samples_encoded)
               : 0.0;
  }
  [[nodiscard]] double DecodeNsPerSample() const noexcept {
    return samples_decoded != 0
               ? decode_s * 1e9 / static_cast<double>(samples_decoded)
               : 0.0;
  }
};

/// Everything a streamed run produces. There is no materialised trace:
/// `summary` holds machine count + merged iteration metadata only, and
/// `stream_hash` fingerprints the merged sample sequence
/// (trace::HashSampleStream over the merged blocks).
struct StreamingExperimentResult {
  trace::TraceStore summary;
  analysis::StreamingAnalysisResult analysis;
  ddc::RunStats run_stats;
  workload::GroundTruth ground_truth;
  std::vector<double> perf_index;
  std::vector<LabSummary> labs;
  winsim::Fleet::Totals hardware;
  int days = 0;
  std::uint64_t parse_failures = 0;
  std::uint64_t crosscheck_mismatches = 0;
  std::uint64_t samples = 0;
  std::uint64_t merged_blocks = 0;
  std::uint64_t stream_hash = 0;
  std::uint64_t anomalies = 0;
  std::uint64_t anomaly_observations = 0;
  std::size_t labs_resumed = 0;
  /// Per-lab spill/merge IO failures (empty on a clean run).
  std::vector<std::string> errors;
  /// Pipeline health (PipelinedExperiment only; zeros otherwise).
  PipelineStats pipeline;
  /// Spill codec accounting (zeros when spilling is disabled).
  SpillCompressionStats spill;
};

class StreamingExperiment {
 public:
  /// Runs collection + merge + incremental analysis end to end
  /// (deterministic for a given config; independent of shard count,
  /// block size and spill mode).
  [[nodiscard]] static StreamingExperimentResult Run(
      const ExperimentConfig& config, const StreamingOptions& options = {});
};

/// Pipelined campaign engine: the three streaming stages — per-shard
/// collection, iteration-front merge, analysis fold — run concurrently,
/// coupled by bounded staging rings, instead of strictly in sequence.
///
/// Shard workers advance their labs in lockstep windows of a fixed number
/// of collection periods and seal iteration-aligned blocks into a bounded
/// MPSC staging ring at every window boundary. A
/// dedicated merge thread drains the ring into a trace::MergeFrontier,
/// which emits merged blocks the moment an iteration front is complete
/// across all labs — it never waits for any lab to finish its campaign.
/// Merged blocks flow through a second ring into the
/// analysis::StreamingAnalysis fold running on its own thread. Block
/// buffers recycle backwards through the rings (per-shard pools feed the
/// collectors; the fold returns merged blocks to the emitter), so the
/// steady state allocates nothing on the merge path.
///
/// The result is bit-identical to StreamingExperiment::Run (stream hash,
/// run stats, all analyses) at any shard count, block size or ring
/// capacity, and checkpoints interoperate with streaming spill dirs in
/// both directions (pinned by tests/core/test_pipelined_determinism).
class PipelinedExperiment {
 public:
  [[nodiscard]] static StreamingExperimentResult Run(
      const ExperimentConfig& config, const StreamingOptions& options = {});
};

}  // namespace labmon::core
