// Experiment — the one-call public API reproducing the study end to end:
// build the 169-machine fleet, drive it with the behavioural model, run the
// DDC coordinator for 77 simulated days, and return the collected trace
// ready for analysis.
//
//   labmon::core::ExperimentConfig config;       // paper defaults
//   auto result = labmon::core::Experiment::Run(config);
//   labmon::core::Report report(result);
//   std::cout << report.Table2();
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "labmon/ddc/coordinator.hpp"
#include "labmon/faultsim/fault_plan.hpp"
#include "labmon/trace/trace_store.hpp"
#include "labmon/winsim/fleet.hpp"
#include "labmon/workload/config.hpp"
#include "labmon/workload/driver.hpp"

namespace labmon::core {

/// Full experiment configuration; the defaults reproduce the paper.
struct ExperimentConfig {
  workload::CampusConfig campus;          ///< 77 days, 169 machines
  ddc::CoordinatorConfig collector;       ///< 15-min sequential probing
  winsim::PriorLifeModel prior_life;      ///< pre-experiment SMART history
  /// Fault scenario injected at the transport boundary (labmon::faultsim).
  /// Inert by default: a disabled/empty plan leaves the collected trace
  /// bit-identical to a build without the fault layer. Part of the snapshot
  /// fingerprint — faulted and clean runs never share a cache entry.
  faultsim::FaultPlan fault_plan;
  /// Collect through the structured in-process fast path (probe fills a
  /// W32Sample directly; the text codec is cross-checked on a deterministic
  /// 1-in-N sampling). Output-invariant: the trace is bit-identical either
  /// way (pinned by test_w32_probe_golden), so this is excluded from the
  /// snapshot fingerprint.
  bool structured_fast_path = true;
  /// Simulation shards (real threads). The fleet is partitioned by lab into
  /// contiguous shards balanced by machine count; each shard runs its labs'
  /// drivers, coordinators and fault injectors to completion and the
  /// per-lab traces are merged deterministically. Output-invariant: every
  /// shard count produces a bit-identical result (pinned by
  /// test_sharded_determinism), so this is excluded from the snapshot
  /// fingerprint. 0 = one shard per hardware thread (capped at lab count).
  int shards = 0;
};

/// A shard = a contiguous run of labs, [lab_begin, lab_end).
struct LabShard {
  std::size_t lab_begin = 0;
  std::size_t lab_end = 0;
};

/// Contiguous greedy partition of the labs into `shards` groups balanced by
/// machine count. Every shard gets at least one lab (shards is pre-clamped
/// to the lab count) and every lab is covered exactly once. Shared by the
/// materialised and streaming engines so both attribute work to the same
/// shard boundaries.
[[nodiscard]] std::vector<LabShard> PartitionLabsByMachines(
    const winsim::Fleet& fleet, std::size_t shards);

/// Static description of one lab for reporting (Table 1).
struct LabSummary {
  std::string name;
  std::size_t machine_count = 0;
  std::string cpu_model;
  double cpu_ghz = 0.0;
  int ram_mb = 0;
  double disk_gb = 0.0;
  double int_index = 0.0;
  double fp_index = 0.0;
};

/// Everything a run produces.
struct ExperimentResult {
  trace::TraceStore trace;
  ddc::RunStats run_stats;
  workload::GroundTruth ground_truth;
  std::vector<double> perf_index;     ///< combined NBench index per machine
  std::vector<LabSummary> labs;
  winsim::Fleet::Totals hardware;
  int days = 0;
  std::uint64_t parse_failures = 0;
  /// Structured/text codec disagreements observed by the sink's 1-in-N
  /// cross-check (must be zero).
  std::uint64_t crosscheck_mismatches = 0;
};

class Experiment {
 public:
  /// Runs the full experiment (deterministic for a given config).
  [[nodiscard]] static ExperimentResult Run(const ExperimentConfig& config);

  /// Snapshot-aware Run: looks for a content-keyed snapshot of this config
  /// under `snapshot_dir` and replays it instead of simulating; on a miss
  /// (or a corrupt/stale snapshot file, after a warning) it simulates and
  /// atomically writes the snapshot for the next caller. An empty
  /// `snapshot_dir` degrades to plain Run(). See core/snapshot.hpp for the
  /// fingerprint and invalidation rules.
  [[nodiscard]] static ExperimentResult RunCached(
      const ExperimentConfig& config, const std::string& snapshot_dir);
};

}  // namespace labmon::core
