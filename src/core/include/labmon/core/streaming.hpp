// Streaming campaign engine — the full experiment in O(block) memory.
//
// StreamingExperiment::Run runs the same campaign loop as Experiment::Run
// and differs only in what consumes the merged blocks: it folds them
// instead of materialising the trace. Collection, merge and analysis fold
// run concurrently, coupled by bounded staging rings: shard threads
// advance their labs in lockstep windows and stage sealed blocks into a
// ring, a merge thread feeds them to a trace::MergeFrontier that emits
// merged blocks as soon as an iteration front is complete across all
// labs, and a fold thread hashes the merged blocks and folds them into
// analysis::StreamingAnalysis. Peak memory is bounded by block size, ring
// capacity and per-machine analysis state. The output is
// bit-identical to Experiment::Run + the materialised pipeline at any
// shard count, block size, ring capacity and spill codec (pinned by
// tests/core/test_streaming_determinism).
//
// With spilling enabled every sealed block is also written to the lab's
// segment in the configured codec (LMSG2 by default; trace/segment.hpp,
// trace/spill_codec.hpp), and every finished lab is a checkpoint: its
// segment plus a small sidecar (config fingerprint, per-lab run stats and
// ground truth) written atomically after the segment is complete. A
// killed campaign restarted with `resume = true` re-simulates only the
// labs whose checkpoint is missing or invalid and replays the rest from
// disk into the ring, reproducing the exact same result. Experiment::Run
// takes the default block_samples, longer windows and a ring of two
// windows' blocks (it keeps the whole trace anyway) and never spills.
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
  /// streams sealed blocks through memory only (nothing to resume from).
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

  /// Capacity of the bounded staging ring between the shard collectors and
  /// the merge stage (blocks). Small rings bound memory and apply
  /// backpressure to fast shards; output is identical at any capacity.
  std::size_t ring_capacity = 64;
  /// Worker budget for the parallel per-front merge sort engaged when the
  /// staging ring backs up. 0 picks a small hardware-derived default.
  std::size_t merge_sort_workers = 0;
};

/// Pipeline health counters of a streaming run. Mirrored into
/// obs::DefaultRegistry gauges under labmon_pipeline_*.
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
/// sums every segment read-back (resume replay; a fresh run decodes none).
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
  /// Pipeline health.
  PipelineStats pipeline;
  /// Spill codec accounting (zeros when spilling is disabled).
  SpillCompressionStats spill;
};

class StreamingExperiment {
 public:
  /// Runs collection + merge + incremental analysis end to end
  /// (deterministic for a given config; independent of shard count,
  /// block size, ring capacity and spill mode). Errors are reported in
  /// `errors`, with the analysis left empty.
  [[nodiscard]] static StreamingExperimentResult Run(
      const ExperimentConfig& config, const StreamingOptions& options = {});
};

/// The former name of the streaming engine. labbench/ calls both names and
/// is frozen as the repository benchmark, so the alias stays.
using PipelinedExperiment = StreamingExperiment;

}  // namespace labmon::core
