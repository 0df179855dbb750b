// Incremental analysis fold — the eight pipeline passes over a block
// stream, in O(machines) memory.
//
// StreamingAnalysis consumes merged trace blocks (time-ordered per
// machine, iteration-major — exactly what trace::StreamMergeBlocks emits)
// and builds, per machine, the same MachineAcc each pass's materialised
// sweep builds, via the same per-event member functions. Finish() then
// replays the pipeline's exact two-level reduction — per-chunk states,
// machines folded in ascending order, chunk states merged in ascending
// order — so every double matches the materialised AnalysisPipeline
// bit-for-bit (pinned by tests/core/test_streaming_determinism).
//
// Per-iteration quantities need care: floating-point accumulation order
// must match the materialised chunk grid even though the stream arrives
// time-ordered, not machine-grouped. Contributions are therefore buffered
// per iteration, sorted by machine when the iteration closes, and replayed
// chunk by chunk into per-chunk partials that sum into the global
// per-iteration vectors — the exact association the chunked sweep
// produces. Integer counts (powered-on/user-free) commute and are
// accumulated directly.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "labmon/analysis/anomaly.hpp"
#include "labmon/analysis/passes.hpp"
#include "labmon/trace/block.hpp"
#include "labmon/trace/derived_trace.hpp"
#include "labmon/util/staging_ring.hpp"

namespace labmon::analysis {

/// Mirrors the wiring core::Report uses for the materialised pipeline; a
/// streamed campaign configured with the defaults below reproduces the
/// full report's numbers.
struct StreamingAnalysisConfig {
  std::size_t machine_count = 0;
  std::size_t machines_per_chunk = 8;  ///< PipelineOptions default
  trace::IntervalOptions intervals;    ///< derivation options (10 h threshold)
  std::vector<double> perf_index;      ///< per machine, for equivalence
  std::vector<LabKey> labs;
  int experiment_days = 0;
  int bin_minutes = 15;
  int session_hours_max = 24;
  /// Equivalence classifies occupancy on raw session presence.
  std::int64_t equivalence_threshold_s = trace::kNoForgottenThreshold;
  CapacityOptions capacity;
};

/// The eight pass results, identical to what core::Report computes.
struct StreamingAnalysisResult {
  Table2Result table2;
  AvailabilityResult availability;
  SessionHourProfile session_hours;
  WeeklyProfiles weekly;
  EquivalenceResult equivalence;
  StabilityResult stability;
  PerLabResult per_lab;
  CapacityResult capacity;
};

class StreamingAnalysis {
 public:
  explicit StreamingAnalysis(StreamingAnalysisConfig config);
  ~StreamingAnalysis();

  /// Optional: forward every sample / derived interval to a detector
  /// (not owned; must outlive the fold).
  void AttachAnomalyDetector(AnomalyDetector* detector) {
    detector_ = detector;
  }

  /// Folds one merged block. Blocks must arrive in stream order.
  void Accept(const trace::TraceBlock& block);

  /// Streaming-engine entry point: pops merged blocks off `ring` until it closes,
  /// folding the stream hash (seed trace::kSampleStreamHashSeed) and
  /// Accept()ing each block, then handing the emptied block to `recycle`
  /// (may be null). Runs on the fold stage's thread; returns the final
  /// stream hash. Blocks consumed are counted in samples() as usual.
  [[nodiscard]] std::uint64_t ConsumeRing(
      util::StagingRing<trace::TraceBlock>& ring,
      util::RecyclingPool<trace::TraceBlock>* recycle,
      std::uint64_t hash_seed);

  /// Finalises every pass. `summary` carries the merged campaign's
  /// machine count and iteration metadata (no samples) — the only trace
  /// state any Finalize reads.
  [[nodiscard]] StreamingAnalysisResult Finish(
      const trace::TraceStore& summary);

  [[nodiscard]] std::uint64_t samples() const noexcept { return samples_; }

 private:
  struct MachineState;
  void CloseIteration();

  StreamingAnalysisConfig config_;

  // The pass objects double as fold logic (MachineAcc + FoldMachine) and
  // finalisers; constructed with the same parameters core::Report uses.
  AggregatePass agg_pass_;
  AvailabilityPass avail_pass_;
  SessionHoursPass hours_pass_;
  WeeklyPass weekly_pass_;
  EquivalencePass eq_pass_;
  StabilityPass stab_pass_;
  PerLabPass lab_pass_;
  CapacityPass cap_pass_;

  std::vector<MachineState> machines_;
  AnomalyDetector* detector_ = nullptr;
  std::uint64_t samples_ = 0;

  // Global per-iteration accumulators (integer counts commute; the double
  // sums are installed via the chunk-grid replay in CloseIteration).
  std::vector<std::uint32_t> on_;
  std::vector<std::uint32_t> free_;
  std::vector<double> eq_occupied_;
  std::vector<double> eq_free_;
  std::vector<double> cap_ram_mb_;
  std::vector<double> cap_disk_gb_;

  // Current-iteration buffers, replayed machine-sorted at close.
  struct EqEntry {
    std::uint32_t machine;
    bool occupied;
    double contribution;
  };
  struct CapEntry {
    std::uint32_t machine;
    double ram_mb;
    double disk_gb;
  };
  std::vector<EqEntry> eq_buffer_;
  std::vector<CapEntry> cap_buffer_;
  std::uint64_t current_iteration_ = 0;
  bool iteration_open_ = false;
};

}  // namespace labmon::analysis
