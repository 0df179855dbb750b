#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>

#include "labmon/core/report.hpp"
#include "labmon/core/snapshot.hpp"
#include "labmon/trace/block.hpp"
#include "labmon/util/rng.hpp"
#include "labmon/winsim/paper_specs.hpp"
#include "spans.hpp"

namespace labbench {

using namespace labmon;
namespace fs = std::filesystem;

std::optional<Workload> ParseWorkload(std::string_view name) {
  if (name == "batch_campus") return Workload::kBatchCampus;
  if (name == "snapshot_replay") return Workload::kSnapshotReplay;
  if (name == "stream_longhorizon") return Workload::kStreamLongHorizon;
  if (name == "harvest_month") return Workload::kHarvestMonth;
  return std::nullopt;
}

core::ExperimentConfig CampaignConfig(Workload workload, std::uint64_t seed) {
  core::ExperimentConfig config;
  config.campus.seed = seed;
  config.collector.seed = util::DeriveSeed(seed, util::seed_stream::kCollector,
                                           0xbe7c);
  if (workload == Workload::kStreamLongHorizon) {
    config.campus.days = 308;
    config.campus.scale_labs = 1;
    config.shards = 2;
  } else {
    config.campus.days = 77;
    config.campus.scale_labs = 4;
    config.shards = 4;
  }
  return config;
}

core::StreamingOptions StreamOptions(const std::string& spill_dir) {
  core::StreamingOptions options;
  options.spill_dir = spill_dir;
  options.spill_codec = trace::SpillCodecId::kLmsg2;
  options.merge_sort_workers = 1;
  return options;
}

workload::CampusConfig HarvestCampus(std::uint64_t seed) {
  workload::CampusConfig campus;
  campus.days = 28;
  campus.scale_labs = 8;
  campus.seed = seed;
  return campus;
}

winsim::Fleet BuildHarvestFleet(std::uint64_t seed) {
  util::Rng rng(seed);
  return winsim::MakePaperFleet(rng, {}, HarvestCampus(seed).scale_labs);
}

harvest::JobDag BuildHarvestDag(std::uint64_t seed) {
  // Far more work than four weeks of the scaled campus can deliver, so the
  // fleet stays saturated to the horizon and the equivalence ratio measures
  // harvestable capacity rather than the bag's size.
  harvest::JobMixOptions options;
  options.kind = harvest::JobMixKind::kBagOfTasks;
  options.jobs = 20000;
  options.mean_index_hours = 1200.0;
  options.sigma_index_hours = 240.0;
  options.seed = util::DeriveSeed(seed, util::seed_stream::kHarvest, 0xbe7c);
  return harvest::MakeJobMix(options);
}

HarvestInputs BuildHarvestInputs(std::uint64_t seed) {
  HarvestInputs in;
  in.campus = HarvestCampus(seed);
  in.fleet = std::make_unique<winsim::Fleet>(BuildHarvestFleet(seed));
  in.driver = std::make_unique<workload::WorkloadDriver>(*in.fleet, in.campus);
  in.dag = BuildHarvestDag(seed);
  return in;
}

harvest::DagPolicy HarvestPolicy() {
  harvest::DagPolicy policy;
  policy.grid.use_occupied_machines = true;
  policy.grid.claim_delay_s = 0;
  return policy;
}

std::vector<std::string> CheckCampaign(std::uint64_t parse_failures,
                                       std::uint64_t crosscheck_mismatches,
                                       const std::vector<std::string>& errors,
                                       std::uint64_t samples) {
  std::vector<std::string> out;
  if (parse_failures != 0) {
    out.push_back(std::to_string(parse_failures) + " parse failures");
  }
  if (crosscheck_mismatches != 0) {
    out.push_back(std::to_string(crosscheck_mismatches) +
                  " cross-check mismatches");
  }
  for (const std::string& e : errors) out.push_back("engine error: " + e);
  if (samples == 0) out.push_back("no samples collected");
  return out;
}

double EquivalenceRatio(const harvest::DagResult& result,
                        std::size_t fleet_size) {
  return fleet_size == 0 ? 0.0
                         : result.effective_dedicated_machines /
                               static_cast<double>(fleet_size);
}

std::vector<std::string> CheckHarvest(const harvest::DagResult& result,
                                      std::size_t fleet_size) {
  std::vector<std::string> out;
  if (result.dag_finished || result.jobs_completed >= result.jobs_total) {
    out.push_back("bag finished before the horizon (not saturating)");
  }
  std::uint64_t completed = 0;
  for (const harvest::DagJobRun& job : result.jobs) {
    const bool done = job.state == harvest::DagJobState::kCompleted;
    if (job.completions > 1) {
      out.push_back("duplicate completion");
      break;
    }
    if (done != (job.completions == 1)) {
      out.push_back("lost completion");
      break;
    }
    completed += done ? 1 : 0;
  }
  if (completed != result.jobs_completed ||
      result.jobs.size() != result.jobs_total) {
    out.push_back("completion tally disagrees with the per-job records");
  }
  const double ratio = EquivalenceRatio(result, fleet_size);
  if (!(std::abs(ratio - kPaperEquivalenceTotal) <=
        kEquivalenceBand * kPaperEquivalenceTotal)) {
    out.push_back("equivalence ratio " + std::to_string(ratio) +
                  " outside the Fig 6 band");
  }
  return out;
}

std::uint64_t StoreHash(const trace::TraceStore& store) {
  trace::StoreReader reader(store);
  return trace::HashSampleStream(reader);
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

std::string Hex(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

obs::JsonlWriter& BeginResult(const std::vector<std::string>& errors) {
  static obs::JsonlWriter writer(std::cout);
  std::string joined;
  for (const std::string& e : errors) {
    if (!joined.empty()) joined += "; ";
    joined += e;
  }
  return writer.Begin("labbench")
      .Field("ok", static_cast<std::uint64_t>(errors.empty()))
      .Field("errors", joined);
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return 0.0;
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

class Timer {
 public:
  Timer() : cpu0_(ProcessCpuSeconds()), t0_(Clock::now()) {}
  [[nodiscard]] Timed Stop() const {
    return {SecondsSince(t0_), ProcessCpuSeconds() - cpu0_};
  }

 private:
  double cpu0_;
  Clock::time_point t0_;
};

}  // namespace

MaterialisedRun TimeMaterialised(Workload workload,
                                 const core::ExperimentConfig& config,
                                 const std::string& snapshot_dir) {
  MaterialisedRun run;
  const Timer timer;
  run.result = workload == Workload::kSnapshotReplay
                   ? core::Experiment::RunCached(config, snapshot_dir)
                   : core::Experiment::Run(config);
  const core::Report report(run.result, core::ReportOptions{kWorkers, nullptr});
  run.timed = timer.Stop();
  run.report_machines = report.pipeline_stats().machines;
  return run;
}

StreamRun TimeStream(const core::ExperimentConfig& config,
                     const std::string& spill_dir) {
  fs::remove_all(spill_dir);
  fs::create_directories(spill_dir);
  StreamRun run;
  const Timer timer;
  run.result = core::PipelinedExperiment::Run(config, StreamOptions(spill_dir));
  run.timed = timer.Stop();
  return run;
}

HarvestRun TimeHarvest(harvest::DagScheduler& scheduler,
                       const HarvestInputs& in) {
  HarvestRun run;
  const Timer timer;
  run.result = scheduler.Run(in.dag, 0, in.campus.EndTime());
  run.timed = timer.Stop();
  return run;
}

std::string SnapshotDir(const std::string& work_dir) {
  return work_dir + "/snapshot";
}

SnapshotSetup WriteSnapshot(std::uint64_t seed, const std::string& work_dir) {
  const core::ExperimentConfig config =
      CampaignConfig(Workload::kSnapshotReplay, seed);
  const core::ExperimentResult result = core::Experiment::Run(config);
  SnapshotSetup out;
  out.errors = CheckCampaign(result.parse_failures,
                             result.crosscheck_mismatches, {},
                             result.trace.size());
  out.hash = StoreHash(result.trace);
  out.samples = result.trace.size();
  const std::uint64_t fingerprint = core::FingerprintConfig(config);
  std::vector<double> store_s;
  for (int k = 0; k < kSnapshotStores; ++k) {
    const std::string dir = k == 0 ? SnapshotDir(work_dir)
                                   : SnapshotDir(work_dir) + "_" +
                                         std::to_string(k);
    fs::remove_all(dir);
    const auto t0 = Clock::now();
    const core::SnapshotCache cache(dir);
    const auto stored = cache.Store(fingerprint, result);
    store_s.push_back(SecondsSince(t0));
    if (!stored.ok()) {
      out.errors.push_back("snapshot store failed: " + stored.error());
      break;
    }
    out.bytes = fs::file_size(cache.PathFor(fingerprint));
    if (k != 0) fs::remove_all(dir);
  }
  out.store_s = Median(std::move(store_s));
  return out;
}

}  // namespace labbench
