#include "labmon/core/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "labmon/core/snapshot.hpp"
#include "labmon/core/streaming.hpp"
#include "labmon/obs/prof.hpp"
#include "labmon/obs/registry.hpp"
#include "labmon/util/log.hpp"
#include "lab_run.hpp"

namespace labmon::core {

std::vector<LabShard> PartitionLabsByMachines(const winsim::Fleet& fleet,
                                              std::size_t shards) {
  const auto labs = fleet.labs();
  std::size_t machines_left = fleet.size();
  std::vector<LabShard> out;
  out.reserve(shards);
  std::size_t lab = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t shards_left = shards - s;
    const std::size_t target =
        (machines_left + shards_left - 1) / shards_left;
    LabShard shard;
    shard.lab_begin = lab;
    std::size_t took = 0;
    // Take labs up to the per-shard target, but always leave enough labs
    // for the remaining shards.
    while (lab < labs.size() &&
           labs.size() - lab > shards_left - 1 &&
           (took == 0 || took + labs[lab].count <= target)) {
      took += labs[lab].count;
      ++lab;
    }
    if (took == 0 && lab < labs.size()) {  // forced single lab
      took = labs[lab].count;
      ++lab;
    }
    shard.lab_end = lab;
    machines_left -= took;
    out.push_back(shard);
  }
  return out;
}

namespace {

/// Trace capacity estimate per machine: ~96 aligned iterations per day,
/// responses only while a machine is powered on. The response-rate guess is
/// derived from the configured opening policy (fraction of the week the
/// rooms are open) times the observed on-while-open share, instead of a
/// hardcoded /2.
std::size_t ReservePerMachine(const workload::CampusConfig& campus) {
  const workload::OpeningHours& h = campus.hours;
  const double weekday_open_h =
      static_cast<double>((24 - h.open_hour) + h.weekday_close_hour);
  const double saturday_open_h = static_cast<double>(
      std::max(0, h.saturday_close_hour - h.open_hour));
  const double sunday_open_h = h.sunday_open ? weekday_open_h : 0.0;
  const double open_fraction =
      (5.0 * weekday_open_h + saturday_open_h + sunday_open_h) / 168.0;
  // ~3/4 of machines respond while the rooms are open (Fig 3), plus a small
  // floor for the boxes left running overnight.
  const double response_guess = std::min(1.0, open_fraction * 0.75 + 0.05);
  return static_cast<std::size_t>(static_cast<double>(campus.days) * 96.0 *
                                  response_guess) +
         1;
}

/// Lockstep window of the in-memory run (~2.7 days at the 15-min period).
/// Each window costs a barrier round that waits for the last-preempted
/// shard; the trace is kept whole anyway, so few long windows beat many.
constexpr std::size_t kWindowIterations = 256;

}  // namespace

ExperimentResult Experiment::Run(const ExperimentConfig& config) {
  obs::DefaultRegistry()
      .GetCounter("labmon_experiment_simulations_total",
                  "Full experiment simulations actually executed.")
      .Increment();
  obs::Span run_span("experiment.run");
  run_span.SetSimRange(0, config.campus.EndTime());
  const auto run_t0 = std::chrono::steady_clock::now();
  // Default block size; no spill dir, so no resume.
  StreamingOptions options;
  options.merge_sort_workers = 1;  // no sort threads beside the shards'
  detail::CampaignRun run(config, options);
  const winsim::Fleet& fleet = run.campaign.fleet;
  // The whole trace is kept anyway, so the collect ring need not bound
  // memory: two lockstep windows of blocks (about one per lab each) let a
  // shard run on while the merge drains the last window. (`run` holds
  // `options` by reference.)
  options.ring_capacity =
      std::max(options.ring_capacity, 2 * fleet.lab_count());
  // The trace is one merged block: the frontier gathers straight into the
  // reserved columns, and its user table, filled in first-appearance
  // order, is the reference merge's (trace/merge.hpp), so the adopted
  // store is byte-identical to merging per-lab traces.
  trace::MergeFrontier frontier(fleet.lab_count(),
                                std::numeric_limits<std::size_t>::max());
  frontier.Reserve(ReservePerMachine(config.campus) * fleet.size());
  trace::TraceBlock merged;
  const auto take = [&](trace::TraceBlock& block) { std::swap(merged, block); };
  detail::RunLoop(run, frontier, take, kWindowIterations, run_t0);
  if (!frontier.finished() || !run.errors.empty()) {
    throw std::logic_error("in-memory campaign run failed: " +
                           (run.errors.empty() ? "" : run.errors.front()));
  }
  auto adopted = trace::TraceStore::Adopt(
      fleet.size(), std::move(merged.cols), std::move(merged.users),
      frontier.TakeIterations());
  if (!adopted.ok()) throw std::logic_error(adopted.error());
  ExperimentResult result;
  result.days = config.campus.days;
  result.trace = std::move(adopted).value();
  detail::InstallTotals(result, run.Total(), result.trace.iterations());
  detail::FillFleetSummaries(result, fleet);
  util::log::Info("collected " + std::to_string(result.trace.size()) +
                  " samples in " +
                  std::to_string(result.run_stats.iterations) + " iterations");
  return result;
}

ExperimentResult Experiment::RunCached(const ExperimentConfig& config,
                                       const std::string& snapshot_dir) {
  if (snapshot_dir.empty()) return Run(config);

  auto& registry = obs::DefaultRegistry();
  const auto load_counter = [&registry](const char* outcome) -> obs::Counter& {
    return registry.GetCounter(
        "labmon_snapshot_loads_total",
        "Snapshot lookup outcomes (hit / miss / corrupt).",
        {{"result", outcome}});
  };

  const std::uint64_t fingerprint = FingerprintConfig(config);
  const SnapshotCache cache(snapshot_dir);
  if (cache.Contains(fingerprint)) {
    obs::prof::PhaseScope prof_scope(obs::prof::Phase::kSnapshot);
    auto loaded = cache.Load(fingerprint);
    if (loaded.ok()) {
      load_counter("hit").Increment();
      util::log::Info("replayed snapshot " + cache.PathFor(fingerprint) +
                      " (" + std::to_string(loaded.value().trace.size()) +
                      " samples, no simulation)");
      return std::move(loaded).value();
    }
    // Existing but unusable file: corruption, truncation or a stale format.
    // Warn, fall through to simulation and overwrite it.
    load_counter("corrupt").Increment();
    util::log::Warn("snapshot " + cache.PathFor(fingerprint) + " unusable (" +
                    loaded.error() + "); re-simulating");
  } else {
    load_counter("miss").Increment();
  }

  ExperimentResult result = Run(config);
  obs::prof::PhaseScope store_scope(obs::prof::Phase::kSnapshot);
  if (const auto stored = cache.Store(fingerprint, result); stored.ok()) {
    registry
        .GetCounter("labmon_snapshot_stores_total",
                    "Snapshots written after a simulation.")
        .Increment();
    util::log::Info("stored snapshot " + cache.PathFor(fingerprint));
  } else {
    util::log::Warn("failed to store snapshot: " + stored.error());
  }
  return result;
}

}  // namespace labmon::core
