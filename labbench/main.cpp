// labbench — the repository benchmark's measured program.
//
//   labbench run <workload> --seed N --work-dir D     one measured repetition
//   labbench reference <workload> --seed N            reference stream hash
//   labbench snapshot-setup --seed N --work-dir D
//   labbench traced <workload> --seed N --work-dir D --spans-out F
//
// Every mode prints one JSON object on the last line of stdout. labbench/
// run.py starts one process per repetition, so the peak RSS and CPU time
// it reads for a process belong to that repetition alone. Workloads run
// through the public labmon API only; each receives nothing but the config
// generated from the seed.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common.hpp"
#include "labmon/obs/registry.hpp"
#include "labmon/util/log.hpp"
#include "labmon/util/rng.hpp"
#include "labmon/winsim/paper_specs.hpp"
#include "labmon/workload/profile.hpp"
#include "spans.hpp"

namespace labbench {
namespace {

using namespace labmon;
namespace fs = std::filesystem;

struct Args {
  std::string mode;
  std::uint64_t seed = 20050201;
  std::string work_dir;
  std::string spans_out;
};

/// The campaign set-up takes well under a millisecond, so a repetition
/// repeats it for at least this long (and at least kMinSetupRepeats times)
/// and reports the median build: one cold build would mostly measure page
/// faults and clock ramp-up.
constexpr double kMinSetupSeconds = 0.025;
constexpr int kMinSetupRepeats = 5;

/// Set-up of batch_campus and stream_longhorizon: builds the campaign's
/// input model — fleet plus campus behaviour profile — through the public
/// API. Returns the median build time and sets `*machines` to the fleet
/// size.
double SetUpCampaignInputs(const core::ExperimentConfig& config,
                           std::size_t* machines) {
  std::vector<double> build_s;
  const auto start = Clock::now();
  while (build_s.size() < kMinSetupRepeats ||
         SecondsSince(start) < kMinSetupSeconds) {
    const auto t0 = Clock::now();
    util::Rng rng(config.campus.seed);
    const winsim::Fleet fleet = winsim::MakePaperFleet(
        rng, config.prior_life, config.campus.scale_labs);
    const workload::CampusProfile profile =
        workload::CampusProfile::Build(fleet, config.campus);
    (void)profile;
    *machines = fleet.size();
    build_s.push_back(SecondsSince(t0));
  }
  return Median(build_s);
}

std::uint64_t CounterValue(const char* name, obs::Labels labels = {}) {
  return obs::DefaultRegistry().GetCounter(name, "", std::move(labels)).value();
}

/// Opens the record of one measured repetition; the caller adds its
/// workload-specific fields and calls End().
obs::JsonlWriter& BeginRun(const std::vector<std::string>& errors,
                           double setup_s, const Timed& timed,
                           double machine_days, std::uint64_t hash,
                           std::uint64_t samples) {
  return BeginResult(errors)
      .Field("setup_s", setup_s)
      .Field("wall_s", timed.wall_s)
      .Field("cpu_s", timed.cpu_s)
      .Field("machine_days", machine_days)
      .Field("hash", Hex(hash))
      .Field("samples", samples);
}

int RunStream(const Args& args) {
  const core::ExperimentConfig config =
      CampaignConfig(Workload::kStreamLongHorizon, args.seed);
  const std::string spill_dir = args.work_dir + "/spill";
  std::size_t machines = 0;
  const double setup_s = SetUpCampaignInputs(config, &machines);

  const StreamRun run = TimeStream(config, spill_dir);

  const core::StreamingExperimentResult& result = run.result;
  const std::vector<std::string> errors =
      CheckCampaign(result.parse_failures, result.crosscheck_mismatches,
                    result.errors, result.samples);
  fs::remove_all(spill_dir);
  BeginRun(errors, setup_s, run.timed,
           static_cast<double>(machines) * config.campus.days,
           result.stream_hash, result.samples)
      .Field("spill_bytes", result.spill.segment_bytes)
      .End();
  return 0;
}

/// batch_campus (simulate) and snapshot_replay (cache hit): the result plus
/// the full report.
int RunMaterialised(Workload workload, const Args& args) {
  const core::ExperimentConfig config = CampaignConfig(workload, args.seed);
  const bool replay = workload == Workload::kSnapshotReplay;
  // snapshot_replay's set-up (the snapshot write) runs once per benchmark
  // run in `snapshot-setup`; its repetitions only replay.
  std::size_t machines = 0;
  const double setup_s = replay ? 0.0 : SetUpCampaignInputs(config, &machines);
  const std::uint64_t sims0 =
      CounterValue("labmon_experiment_simulations_total");
  const std::uint64_t hits0 =
      CounterValue("labmon_snapshot_loads_total", {{"result", "hit"}});

  const MaterialisedRun run =
      TimeMaterialised(workload, config, SnapshotDir(args.work_dir));

  const core::ExperimentResult& result = run.result;
  if (replay) machines = result.perf_index.size();
  std::vector<std::string> errors =
      CheckCampaign(result.parse_failures, result.crosscheck_mismatches, {},
                    result.trace.size());
  if (run.report_machines != machines) {
    errors.push_back("report covered " + std::to_string(run.report_machines) +
                     " machines, expected " + std::to_string(machines));
  }
  if (replay) {
    const std::uint64_t sims =
        CounterValue("labmon_experiment_simulations_total") - sims0;
    const std::uint64_t hits =
        CounterValue("labmon_snapshot_loads_total", {{"result", "hit"}}) -
        hits0;
    if (sims != 0 || hits != 1) {
      errors.push_back("replay was not a pure cache hit (" +
                       std::to_string(sims) + " simulations, " +
                       std::to_string(hits) + " hits)");
    }
  }
  BeginRun(errors, setup_s, run.timed,
           static_cast<double>(machines) * config.campus.days,
           StoreHash(result.trace), result.trace.size())
      .End();
  return 0;
}

int RunHarvest(const Args& args) {
  const auto setup_t0 = Clock::now();
  const HarvestInputs in = BuildHarvestInputs(args.seed);
  harvest::DagScheduler scheduler(*in.fleet, *in.driver, HarvestPolicy());
  const double setup_s = SecondsSince(setup_t0);
  const std::size_t machines = in.fleet->size();

  const HarvestRun run = TimeHarvest(scheduler, in);

  const harvest::DagResult& result = run.result;
  const std::vector<std::string> errors = CheckHarvest(result, machines);
  BeginRun(errors, setup_s, run.timed,
           static_cast<double>(machines) * in.campus.days, result.ResultHash(),
           result.jobs_completed)
      .Field("equiv_ratio", EquivalenceRatio(result, machines))
      .Field("jobs_completed", result.jobs_completed)
      .Field("jobs_total", result.jobs_total)
      .End();
  return 0;
}

/// Reference stream hash from an engine other than the workload's own:
/// the streaming engine (in-memory blocks) for the 77-day campus, the
/// materialised sharded engine for the 308-day campaign.
int RunReference(Workload workload, const Args& args) {
  core::ExperimentConfig config = CampaignConfig(workload, args.seed);
  std::uint64_t hash = 0;
  std::uint64_t samples = 0;
  std::vector<std::string> errors;
  if (workload == Workload::kStreamLongHorizon) {
    config.shards = 4;
    const core::ExperimentResult result = core::Experiment::Run(config);
    hash = StoreHash(result.trace);
    samples = result.trace.size();
    errors = CheckCampaign(result.parse_failures, result.crosscheck_mismatches,
                           {}, samples);
  } else {
    const core::StreamingExperimentResult result =
        core::StreamingExperiment::Run(config);
    hash = result.stream_hash;
    samples = result.samples;
    errors = CheckCampaign(result.parse_failures, result.crosscheck_mismatches,
                           result.errors, samples);
  }
  BeginResult(errors).Field("hash", Hex(hash)).Field("samples", samples).End();
  return 0;
}

/// snapshot_replay's set-up; the median write is the workload's setup_s.
int RunSnapshotSetup(const Args& args) {
  const SnapshotSetup setup = WriteSnapshot(args.seed, args.work_dir);
  BeginResult(setup.errors)
      .Field("setup_s", setup.store_s)
      .Field("hash", Hex(setup.hash))
      .Field("samples", setup.samples)
      .Field("snapshot_bytes", setup.bytes)
      .End();
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: labbench run|reference|traced <workload> --seed N "
               "[--work-dir D] [--spans-out F]\n"
               "       labbench snapshot-setup --seed N --work-dir D\n"
               "workloads: batch_campus snapshot_replay stream_longhorizon "
               "harvest_month\n");
  return 2;
}

}  // namespace
}  // namespace labbench

int main(int argc, char** argv) {
  using namespace labbench;
  Args args;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--work-dir" && has_value) {
      args.work_dir = argv[++i];
    } else if (flag == "--spans-out" && has_value) {
      args.spans_out = argv[++i];
    } else if (flag.rfind("--", 0) == 0) {
      return Usage();
    } else {
      positional.push_back(flag);
    }
  }
  if (positional.empty()) return Usage();
  args.mode = positional[0];
  // Library progress lines go to stderr; stdout carries only the result.
  labmon::util::log::SetLevel(labmon::util::log::Level::kWarn);

  if (args.mode == "snapshot-setup") {
    if (args.work_dir.empty()) return Usage();
    return RunSnapshotSetup(args);
  }
  if (positional.size() < 2) return Usage();
  const auto workload = ParseWorkload(positional[1]);
  if (!workload) return Usage();
  if (args.mode == "reference") {
    if (*workload == Workload::kHarvestMonth) return Usage();
    return RunReference(*workload, args);
  }
  if (args.work_dir.empty()) return Usage();
  if (args.mode == "run") {
    switch (*workload) {
      case Workload::kHarvestMonth:
        return RunHarvest(args);
      case Workload::kStreamLongHorizon:
        return RunStream(args);
      default:
        return RunMaterialised(*workload, args);
    }
  }
  if (args.mode == "traced") {
    return RunTraced(*workload, args.seed, args.work_dir, args.spans_out);
  }
  return Usage();
}
