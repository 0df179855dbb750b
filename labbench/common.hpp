// Shared pieces of the labbench driver: the workloads' generated
// inputs, their timed regions, their output checks and CPU-time sampling.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "labmon/core/experiment.hpp"
#include "labmon/core/streaming.hpp"
#include "labmon/harvest/dag.hpp"
#include "labmon/harvest/dag_scheduler.hpp"
#include "labmon/obs/jsonl.hpp"
#include "labmon/winsim/fleet.hpp"
#include "labmon/workload/driver.hpp"

namespace labbench {

enum class Workload { kBatchCampus, kSnapshotReplay, kStreamLongHorizon,
                      kHarvestMonth };

[[nodiscard]] std::optional<Workload> ParseWorkload(std::string_view name);

/// Campaign config of a campaign workload, generated from the seed alone.
/// batch_campus and snapshot_replay share one config: 676 machines
/// (scale_labs 4) over 77 days on 4 shards. stream_longhorizon runs 169
/// machines over 308 days on 2 shards.
[[nodiscard]] labmon::core::ExperimentConfig CampaignConfig(Workload workload,
                                                            std::uint64_t seed);

/// Pipelined-engine options for stream_longhorizon: LMSG2 spill into
/// `spill_dir`, the engine's default block size, and a single-threaded
/// merge sort so the run never has more than 4 runnable threads (2 shard
/// workers, the merge thread and the fold thread).
[[nodiscard]] labmon::core::StreamingOptions StreamOptions(
    const std::string& spill_dir);

/// harvest_month's inputs: a 1,352-machine campus (scale_labs 8) over 28
/// days, its whole-campus behaviour driver, and a saturating bag of tasks.
struct HarvestInputs {
  labmon::workload::CampusConfig campus;
  std::unique_ptr<labmon::winsim::Fleet> fleet;
  std::unique_ptr<labmon::workload::WorkloadDriver> driver;
  labmon::harvest::JobDag dag;
};

[[nodiscard]] labmon::winsim::Fleet BuildHarvestFleet(std::uint64_t seed);
[[nodiscard]] labmon::workload::CampusConfig HarvestCampus(std::uint64_t seed);
[[nodiscard]] labmon::harvest::JobDag BuildHarvestDag(std::uint64_t seed);
[[nodiscard]] HarvestInputs BuildHarvestInputs(std::uint64_t seed);
/// Occupied machines allowed (the paper's 2:1 claim), no fault plan.
[[nodiscard]] labmon::harvest::DagPolicy HarvestPolicy();

/// Figure 6 mean total equivalence ratio and the band the benchmark
/// accepts around it.
inline constexpr double kPaperEquivalenceTotal = 0.51;
inline constexpr double kEquivalenceBand = 0.20;  ///< relative, either side

/// Output checks; each returns the failures found (empty = pass).
[[nodiscard]] std::vector<std::string> CheckCampaign(
    std::uint64_t parse_failures, std::uint64_t crosscheck_mismatches,
    const std::vector<std::string>& errors, std::uint64_t samples);
[[nodiscard]] std::vector<std::string> CheckHarvest(
    const labmon::harvest::DagResult& result, std::size_t fleet_size);

[[nodiscard]] double EquivalenceRatio(const labmon::harvest::DagResult& result,
                                      std::size_t fleet_size);

/// Sample-stream hash of a materialised trace (trace::HashSampleStream).
[[nodiscard]] std::uint64_t StoreHash(const labmon::trace::TraceStore& store);

/// User + system CPU seconds this process has used so far (all threads).
[[nodiscard]] double ProcessCpuSeconds();

[[nodiscard]] std::string Hex(std::uint64_t value);
/// Opens the result record that every labbench mode prints as the last
/// line of stdout: "ok" (1 or 0) and "errors" (the failures joined into one
/// string). The caller adds its fields and calls End().
labmon::obs::JsonlWriter& BeginResult(const std::vector<std::string>& errors);

[[nodiscard]] double Median(std::vector<double> values);

/// Wall and CPU seconds of one timed region.
struct Timed {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

// The timed regions. `labbench run` and the untraced pass of `labbench
// traced` both call these, so the overhead the traced run reports is taken
// against the code `run` measures. Each region ends once the result is
// complete: the benchmark's own checks run after the clock stops.

/// Workers of core::Report, DerivedTrace and the analysis sweep: one per
/// core of the 4-core machine the benchmark is sized for.
inline constexpr std::size_t kWorkers = 4;

struct MaterialisedRun {
  labmon::core::ExperimentResult result;
  std::size_t report_machines = 0;  ///< machines the report covered
  Timed timed;
};

/// batch_campus: core::Experiment::Run plus core::Report. snapshot_replay:
/// core::Experiment::RunCached from `snapshot_dir` plus core::Report.
[[nodiscard]] MaterialisedRun TimeMaterialised(
    Workload workload, const labmon::core::ExperimentConfig& config,
    const std::string& snapshot_dir);

struct StreamRun {
  labmon::core::StreamingExperimentResult result;
  Timed timed;
};

/// stream_longhorizon: core::PipelinedExperiment::Run spilling into
/// `spill_dir`, which is emptied first and left in place for the caller.
[[nodiscard]] StreamRun TimeStream(const labmon::core::ExperimentConfig& config,
                                   const std::string& spill_dir);

struct HarvestRun {
  labmon::harvest::DagResult result;
  Timed timed;
};

/// harvest_month: the scheduler's run of the bag over the whole horizon.
[[nodiscard]] HarvestRun TimeHarvest(labmon::harvest::DagScheduler& scheduler,
                                     const HarvestInputs& in);

/// snapshot_replay's set-up: simulates the shared 77-day campus once and
/// writes its snapshot kSnapshotStores times into fresh directories under
/// `work_dir`. The first copy stays as SnapshotDir(work_dir) for the
/// replays; the others are removed.
inline constexpr int kSnapshotStores = 3;

struct SnapshotSetup {
  std::vector<std::string> errors;
  double store_s = 0.0;       ///< median of the writes
  std::uint64_t hash = 0;     ///< sample-stream hash of the written result
  std::uint64_t samples = 0;
  std::uint64_t bytes = 0;    ///< snapshot file size
};

[[nodiscard]] std::string SnapshotDir(const std::string& work_dir);
[[nodiscard]] SnapshotSetup WriteSnapshot(std::uint64_t seed,
                                          const std::string& work_dir);

/// Traced run of one workload (traced.cpp): prints per-layer metrics and
/// writes the span file. Returns the process exit code.
int RunTraced(Workload workload, std::uint64_t seed,
              const std::string& work_dir, const std::string& spans_out);

}  // namespace labbench
