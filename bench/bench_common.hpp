// Shared plumbing for the reproduction benches: every bench runs the full
// experiment (77 simulated days by default; override with LABMON_BENCH_DAYS)
// and prints its table/figure as "measured vs paper".
//
// Snapshot reuse: set LABMON_SNAPSHOT_DIR to a directory and every bench
// sharing a config replays one content-keyed snapshot instead of
// re-simulating — the whole suite pays for one simulation.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "labmon/core/experiment.hpp"
#include "labmon/core/report.hpp"
#include "labmon/util/strings.hpp"

namespace labmon::bench {

/// Linux fallback for sandboxes where getrusage is unavailable or reports
/// ru_maxrss = 0 (seccomp'd containers, some emulated runners): VmHWM from
/// /proc/self/status, in bytes. Returns 0 when that is unreadable too.
inline std::uint64_t PeakRssFromProcStatus() {
  std::ifstream status("/proc/self/status");
  if (!status.is_open()) return 0;
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    std::uint64_t kib = 0;
    if (fields >> kib) return kib * 1024u;
    return 0;
  }
  return 0;
}

/// Peak resident-set size of this process so far, in bytes. Prefers
/// getrusage ru_maxrss, falls back to /proc/self/status VmHWM, and returns
/// 0 only when neither source works — callers must treat 0 as "peak RSS
/// not measurable here" (see PeakRssSupported), never as a real footprint.
/// This is the process-wide high-water mark — it only ever grows, so
/// comparing two configurations needs one process per configuration
/// (stream_fleet re-execs itself per mode for exactly this reason).
inline std::uint64_t PeakRssBytes() {
  std::uint64_t peak = 0;
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage = {};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
#if defined(__APPLE__)
    peak = static_cast<std::uint64_t>(usage.ru_maxrss);  // already bytes
#else
    peak = static_cast<std::uint64_t>(usage.ru_maxrss) * 1024u;  // KiB
#endif
  }
#endif
  if (peak == 0) peak = PeakRssFromProcStatus();
  return peak;
}

/// True when this platform can actually measure peak RSS. Gates that
/// compare footprints must skip (not fail, and above all not compare
/// 0-vs-0) when this is false.
inline bool PeakRssSupported() { return PeakRssBytes() != 0; }

/// Snapshot directory shared by the bench suite ("" = snapshots disabled).
inline std::string SnapshotDir() {
  const char* env = std::getenv("LABMON_SNAPSHOT_DIR");
  return env != nullptr ? std::string(env) : std::string();
}

/// Runs the experiment, replaying a snapshot when LABMON_SNAPSHOT_DIR
/// holds one for this config.
inline core::ExperimentResult RunExperiment(
    const core::ExperimentConfig& config) {
  return core::Experiment::RunCached(config, SnapshotDir());
}

inline int BenchDays() {
  if (const char* env = std::getenv("LABMON_BENCH_DAYS")) {
    const auto days = util::ParseInt64(env);
    if (days && *days > 0 && *days <= 10000) {
      return static_cast<int>(*days);
    }
    std::cerr << "warning: ignoring malformed LABMON_BENCH_DAYS=\"" << env
              << "\" (want an integer in [1, 10000]); using 77\n";
  }
  return 77;
}

inline std::uint64_t BenchSeed() {
  if (const char* env = std::getenv("LABMON_BENCH_SEED")) {
    if (const auto seed = util::ParseInt64(env); seed && *seed >= 0) {
      return static_cast<std::uint64_t>(*seed);
    }
    std::cerr << "warning: ignoring malformed LABMON_BENCH_SEED=\"" << env
              << "\" (want a non-negative integer); using 20050201\n";
  }
  return 20050201;
}

inline core::ExperimentConfig BenchConfig() {
  core::ExperimentConfig config;
  config.campus.days = BenchDays();
  config.campus.seed = BenchSeed();
  return config;
}

// --- Figure 6 cross-check -------------------------------------------------
// The paper's cluster-equivalence ratios (§5.4, Figure 6): what fraction of
// a dedicated same-size cluster the harvested idle CPU is worth. Harvest
// benches and gates compare against these through ONE helper so the
// fleet-average-index math is never duplicated (or subtly diverged) again.

inline constexpr double kPaperEquivalenceOccupied = 0.26;
inline constexpr double kPaperEquivalenceFree = 0.25;
inline constexpr double kPaperEquivalenceTotal = 0.51;  ///< the 2:1 claim

struct Fig6Comparison {
  double ratio = 0.0;           ///< realised equivalence ratio
  double paper_ratio = 0.0;     ///< the Figure 6 value compared against
  double relative_error = 0.0;  ///< (ratio - paper) / paper
};

/// Compares a harvest run's effective-dedicated-machines figure (already
/// normalised by the fleet-average combined index — see
/// harvest::DagResult) with a Figure 6 ratio.
inline Fig6Comparison CompareWithFig6(double effective_dedicated_machines,
                                      std::size_t fleet_size,
                                      double paper_ratio) {
  Fig6Comparison out;
  out.paper_ratio = paper_ratio;
  if (fleet_size > 0) {
    out.ratio =
        effective_dedicated_machines / static_cast<double>(fleet_size);
  }
  if (paper_ratio != 0.0) {
    out.relative_error = (out.ratio - paper_ratio) / paper_ratio;
  }
  return out;
}

inline void Banner(const std::string& title) {
  std::cout << std::string(72, '=') << '\n'
            << title << '\n'
            << "(" << BenchDays()
            << " simulated days, 169 machines, 15-minute sampling)\n"
            << std::string(72, '=') << "\n\n";
}

}  // namespace labmon::bench
