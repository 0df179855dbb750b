// The per-lab collection slice shared by both campaign engines
// (core/src only — not part of the installed API).
//
// The paper's DDC runs one unit of work per lab: probe every machine of the
// lab each collection period. LabRun is that unit — behaviour driver,
// probe, fault injector and coordinator, with the lab's collector and fault
// seeds derived here and nowhere else — collecting into any
// ddc::SampleSink. Experiment::Run feeds it a plain TraceStoreSink; the
// streaming engine feeds it a BlockSealer and keeps its run-wide
// spill/checkpoint state in a SealingRun. The result helpers below
// assemble the totals both engines report, so they stay bit-identical by
// construction.
#pragma once

#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "labmon/core/streaming.hpp"
#include "labmon/ddc/w32_probe.hpp"
#include "labmon/faultsim/fault_injector.hpp"
#include "labmon/trace/segment.hpp"
#include "labmon/trace/sink.hpp"
#include "labmon/winsim/fleet.hpp"
#include "labmon/workload/profile.hpp"

namespace labmon::core::detail {

/// What one lab's collection adds to the campaign totals. Only the ten
/// per-attempt RunStats counters are summed; the iteration-derived fields
/// come from the merged iteration records (InstallTotals).
struct LabTally {
  ddc::RunStats stats;
  workload::GroundTruth truth;
  std::uint64_t parse_failures = 0;
  std::uint64_t crosscheck_mismatches = 0;

  LabTally& operator+=(const LabTally& other) noexcept;
};

/// The fleet and campus profile, built once per run and shared by every
/// lab (each lab's driver only touches its own machines).
struct Campaign {
  explicit Campaign(const ExperimentConfig& config);
  Campaign(const Campaign&) = delete;
  Campaign& operator=(const Campaign&) = delete;

  const ExperimentConfig& config;
  winsim::Fleet fleet;
  const workload::CampusProfile profile;
};

/// Worker count for `shards` (0 = one per hardware thread), clamped to
/// [1, lab_count].
[[nodiscard]] std::size_t ClampWorkers(int shards, std::size_t lab_count);

/// Collects lab `lab` of the campaign into `sink`. Run() drives the whole
/// horizon; Begin/StepUntil/Finish drive it in windows with a bit-identical
/// probe/fault sequence. Never moved: the coordinator holds references
/// into the object.
class LabRun {
 public:
  /// `parser` is the TraceStoreSink that parses what reaches `sink` (the
  /// sink itself or the one it wraps); Finish() reports its tallies.
  LabRun(Campaign& campaign, std::size_t lab, ddc::SampleSink& sink,
         const trace::TraceStoreSink& parser);
  LabRun(const LabRun&) = delete;
  LabRun& operator=(const LabRun&) = delete;

  /// Begin(); StepUntil(end); Finish().
  LabTally Run();
  void Begin() { coordinator_.Begin(0); }
  void StepUntil(util::SimTime until) { coordinator_.StepUntil(until); }
  /// Ends the run at the campaign horizon and returns the lab's tally.
  LabTally Finish();

 private:
  struct Advance {
    workload::WorkloadDriver* driver;
    void operator()(util::SimTime t) const;
  };

  ddc::CoordinatorConfig Collector(Campaign& campaign, std::size_t lab);

  const util::SimTime end_;
  const trace::TraceStoreSink& parser_;
  workload::WorkloadDriver driver_;
  ddc::W32Probe probe_;
  faultsim::FaultInjector injector_;
  Advance advance_{&driver_};
  ddc::Coordinator coordinator_;
};

/// Sink of the streaming engine: samples append to a small working
/// store, and whenever an iteration completes with the store at or past
/// the block budget — or on SealPending() — the store is sealed: appended
/// to the lab's segment (when spilling), handed to the publish callback,
/// and cleared. Blocks are therefore iteration-aligned and self-contained
/// (block-local user table + the iteration rows they cover).
class BlockSealer final : public ddc::SampleSink {
 public:
  /// Receives each sealed block while it is still in the working store.
  using Publish = std::function<void(const trace::TraceStore&)>;

  /// An empty `segment_path` writes no segment; a segment that cannot be
  /// opened is reported through error().
  BlockSealer(std::size_t machine_count, std::size_t block_samples,
              std::size_t reserve, const std::string& segment_path,
              trace::SpillCodecId codec, Publish publish);
  BlockSealer(const BlockSealer&) = delete;
  BlockSealer& operator=(const BlockSealer&) = delete;

  ddc::SampleVerdict OnSample(const ddc::CollectedSample& sample) override {
    return parser_.OnSample(sample);
  }
  void OnIterationEnd(std::uint64_t iteration, util::SimTime start_time,
                      util::SimTime end_time) override;

  /// Seals whatever is buffered (window boundary / end of run).
  void SealPending();

  [[nodiscard]] const trace::TraceStoreSink& parser() const noexcept {
    return parser_;
  }
  [[nodiscard]] std::uint64_t blocks_sealed() const noexcept {
    return blocks_sealed_;
  }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  /// The lab's segment writer; empty when not spilling.
  [[nodiscard]] std::optional<trace::SegmentWriter>& segment() noexcept {
    return segment_;
  }

 private:
  void Seal();

  trace::TraceStore store_;
  trace::TraceStoreSink parser_{store_};
  std::size_t block_samples_;
  std::optional<trace::SegmentWriter> segment_;
  Publish publish_;
  std::uint64_t blocks_sealed_ = 0;
  std::string error_;
};

/// The checkpoint sidecar payload: a resumed lab restores its tally
/// without re-simulating.
struct LabCheckpoint : LabTally {
  std::uint64_t blocks = 0;
  /// Codec the lab's segment was written under. Informational: resume
  /// re-opens the segment and dispatches on its actual magic, so a
  /// checkpoint written under either codec resumes under any requested
  /// codec (cross-codec resume is pinned by the determinism tests).
  trace::SpillCodecId codec = trace::kDefaultSpillCodec;
};

inline constexpr char kSidecarMagic[] = "LMSGCK";
// v2 added the "codec" line; v1 sidecars are simply re-simulated.
inline constexpr std::uint64_t kSidecarVersion = 2;

inline std::string LabFileStem(const std::string& dir, std::size_t lab) {
  char name[32];
  std::snprintf(name, sizeof(name), "lab%04zu", lab);
  return dir + "/" + name;
}

inline std::string SegmentPath(const std::string& dir, std::size_t lab) {
  return LabFileStem(dir, lab) + ".lmsg";
}

inline std::string SidecarPath(const std::string& dir, std::size_t lab) {
  return LabFileStem(dir, lab) + ".ck";
}

/// The sidecar is the checkpoint commit point: written (atomically, via
/// temp file + rename) only after the lab's segment is complete, so a
/// crash mid-lab leaves no sidecar and the lab is simply re-simulated.
bool WriteSidecar(const std::string& path, std::uint64_t fingerprint,
                  std::size_t lab, const LabCheckpoint& cp);

/// Parses and validates a sidecar; false on any mismatch (wrong magic or
/// version, foreign fingerprint, wrong lab index, truncation).
bool LoadSidecar(const std::string& path, std::uint64_t fingerprint,
                 std::size_t lab, LabCheckpoint& cp);

/// Installs the iteration aggregates of the merged (campus-wide)
/// iteration records: an iteration spans the earliest lab start to the
/// latest lab end.
void SetIterationAggregates(ddc::RunStats& stats,
                            std::span<const trace::IterationInfo> its);

void WarnCrosscheckMismatches(std::uint64_t mismatches);

/// Installs the summed lab tallies and the iteration aggregates into any
/// engine's result.
template <typename Result>
void InstallTotals(Result& result, const LabTally& total,
                   std::span<const trace::IterationInfo> iterations) {
  result.run_stats = total.stats;
  result.ground_truth = total.truth;
  result.parse_failures = total.parse_failures;
  result.crosscheck_mismatches = total.crosscheck_mismatches;
  SetIterationAggregates(result.run_stats, iterations);
  WarnCrosscheckMismatches(total.crosscheck_mismatches);
}

/// Copies the fleet summaries (hardware totals, perf index, per-lab specs)
/// into any engine's result.
template <typename Result>
void FillFleetSummaries(Result& result, const winsim::Fleet& fleet) {
  result.hardware = fleet.HardwareTotals();
  result.perf_index.reserve(fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    result.perf_index.push_back(fleet.machine(i).spec().CombinedIndex());
  }
  for (const auto& lab : fleet.labs()) {
    const auto& spec = fleet.machine(lab.first).spec();
    result.labs.push_back(LabSummary{lab.name, lab.count, spec.cpu_model,
                                     spec.cpu_ghz, spec.ram_mb, spec.disk_gb,
                                     spec.int_index, spec.fp_index});
  }
}

/// Run-wide state of the streaming engine: the campaign, the
/// result under construction, the analysis fold, the per-lab checkpoints
/// (restored on resume, filled as live labs commit) and the thread-safe
/// error and spill accounting.
class SealingRun {
 public:
  SealingRun(const ExperimentConfig& config, const StreamingOptions& options);
  SealingRun(const SealingRun&) = delete;
  SealingRun& operator=(const SealingRun&) = delete;

  /// Creates the spill dir and, on resume, restores every lab whose
  /// sidecar and segment are both valid. False (error recorded) when the
  /// spill dir cannot be created.
  bool Prepare();

  /// Commits a finished live lab: trailing seal, checkpoint, segment
  /// close, encode accounting and sidecar. False (error recorded) on
  /// failure.
  bool Commit(std::size_t lab, BlockSealer& sealer, const LabTally& tally);

  /// Records an error; always returns false.
  bool Fail(std::string message);
  void AddDecodeStats(const trace::SegmentReader& reader);

  /// Installs the merged stream's summary and analysis plus the totals.
  void Finish(trace::TraceStore summary,
              analysis::StreamingAnalysisResult analysis,
              std::uint64_t samples, std::uint64_t merged_blocks,
              std::uint64_t stream_hash);

  Campaign campaign;
  const StreamingOptions& options;
  const bool spill;
  const std::uint64_t fingerprint;
  StreamingExperimentResult result;
  analysis::StreamingAnalysis fold;
  const std::unique_ptr<analysis::AnomalyDetector> detector;
  std::vector<LabCheckpoint> checkpoints;
  std::vector<char> resumed;

 private:
  std::mutex error_mutex_;
  std::mutex spill_mutex_;
};

/// One live lab of the streaming engine: its sealer (writing the lab's
/// segment when the run spills) and the collector feeding it. Never moved.
struct SealedLab {
  SealedLab(SealingRun& run, std::size_t lab, std::size_t reserve,
            BlockSealer::Publish publish);

  BlockSealer sealer;
  LabRun collector;
};

/// A summary store: machine count + the merged iteration records.
trace::TraceStore SummaryStore(std::size_t machine_count,
                               std::span<const trace::IterationInfo> its);

}  // namespace labmon::core::detail
