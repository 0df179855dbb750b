// scale_fleet — sharded-engine scaling study on a multi-thousand-machine
// campus, instrumented by labmon::obs::prof.
//
// Replicates the 11 paper labs LABMON_SCALE_LABS times (default 12 =>
// 2,028 machines) and runs three sweeps:
//
//   1. Profiler overhead: the same shards=1 run with profiling off and on.
//      The wall-time delta is the profiler's overhead (budget: <= 2%), and
//      the trace hashes must match — profiling must never perturb output.
//   2. Shard sweep {1, 2, 4, 8}: wall time, machine-samples/s, measured
//      speedup vs one shard, the load-balance speedup bound, and the
//      profiler's per-phase self-time/allocation breakdown per run.
//   2b. Streaming engine sweep {1, 2, 8} shards: the overlapped
//      collect/merge/fold engine (core::StreamingExperiment) on the same
//      campus — stream hash vs the materialised trace, serial fraction,
//      ring/merge-lag/arena-reuse stats.
//   3. Fleet-size sweep LABMON_SCALE_SWEEP (default "1,8,48" lab
//      replicas): how the per-phase profile shifts as the campus grows.
//
// Two numbers matter per shard count:
//   * speedup            — measured wall-clock ratio vs shards=1. On a
//     single-core container this is ~1.0 by physics; on an N-core host it
//     approaches the bound below.
//   * load_balance_bound — sum of per-shard work / max shard work, i.e.
//     the speedup the partition would deliver given >= shards cores. This
//     is hardware-independent, so it is the number CI pins.
//
// Output: BENCH_scale.json (sweeps), BENCH_prof.json (profiler report +
// gate inputs; consumed by bench/prof_gate) and BENCH_prof_trace.json
// (chrome://tracing timeline of the final profiled run).
//
// LABMON_SCALE_DAYS bounds the simulated days (default 1: ~2k machines x
// 96 iterations is already ~195k machine-samples per run).
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "labmon/core/streaming.hpp"
#include "labmon/obs/exporters.hpp"
#include "labmon/obs/prof.hpp"
#include "labmon/obs/registry.hpp"
#include "labmon/trace/binary_io.hpp"
#include "labmon/trace/block.hpp"
#include "labmon/util/csv.hpp"
#include "labmon/util/strings.hpp"

namespace {

using namespace labmon;

std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

int EnvInt(const char* name, int fallback, int lo, int hi) {
  if (const char* env = std::getenv(name)) {
    const auto parsed = util::ParseInt64(env);
    if (parsed && *parsed >= lo && *parsed <= hi) {
      return static_cast<int>(*parsed);
    }
    std::cerr << "warning: ignoring malformed " << name << "=\"" << env
              << "\" (want an integer in [" << lo << ", " << hi << "]); using "
              << fallback << "\n";
  }
  return fallback;
}

std::vector<int> EnvIntList(const char* name, std::vector<int> fallback,
                            int lo, int hi) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  std::vector<int> values;
  for (const auto& field : util::Split(env, ',')) {
    const auto parsed = util::ParseInt64(util::Trim(field));
    if (!parsed || *parsed < lo || *parsed > hi) {
      std::cerr << "warning: ignoring malformed " << name << "=\"" << env
                << "\" (want comma-separated integers in [" << lo << ", "
                << hi << "])\n";
      return fallback;
    }
    values.push_back(static_cast<int>(*parsed));
  }
  return values.empty() ? fallback : values;
}

/// Per-phase self-wall/self-allocation totals of one profiled run.
struct PhaseBreakdown {
  double self_s[obs::prof::kPhaseCount] = {};
  std::uint64_t alloc_bytes[obs::prof::kPhaseCount] = {};
};

PhaseBreakdown Breakdown(const obs::prof::Report& report) {
  PhaseBreakdown b;
  for (std::size_t p = 0; p < obs::prof::kPhaseCount; ++p) {
    const auto phase = static_cast<obs::prof::Phase>(p);
    b.self_s[p] = report.PhaseSelfSeconds(phase);
    b.alloc_bytes[p] = report.PhaseAllocBytes(phase);
  }
  return b;
}

std::string BreakdownJson(const PhaseBreakdown& b, const std::string& indent) {
  std::ostringstream json;
  json << "{\n";
  for (std::size_t p = 0; p < obs::prof::kPhaseCount; ++p) {
    const auto phase = static_cast<obs::prof::Phase>(p);
    json << indent << "  \"" << obs::prof::PhaseName(phase)
         << "\": {\"self_s\": " << util::FormatFixed(b.self_s[p], 6)
         << ", \"alloc_bytes\": " << b.alloc_bytes[p] << "}"
         << (p + 1 < obs::prof::kPhaseCount ? "," : "") << "\n";
  }
  json << indent << "}";
  return json.str();
}

struct TimedRun {
  core::ExperimentResult result;
  double wall_s = 0.0;
  std::uint64_t trace_hash = 0;
  std::uint64_t peak_rss_bytes = 0;
};

TimedRun Run(const core::ExperimentConfig& config) {
  TimedRun run;
  const auto start = std::chrono::steady_clock::now();
  run.result = core::Experiment::Run(config);
  run.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  run.trace_hash = Fnv1a(trace::SerializeTrace(run.result.trace));
  run.peak_rss_bytes = bench::PeakRssBytes();
  return run;
}

struct ShardRun {
  int shards = 0;
  double wall_s = 0.0;
  double samples_per_s = 0.0;        ///< collection attempts / wall second
  double speedup = 0.0;              ///< vs the shards=1 run (measured)
  double load_balance_bound = 0.0;   ///< sum shard work / max shard work
  double critical_path_fraction = 0.0;
  std::uint64_t trace_hash = 0;
  std::uint64_t attempts = 0;
  /// Process-wide RSS high-water mark after this run. Monotone across
  /// the sweep (one process runs all configurations), so only the growth
  /// between consecutive runs is attributable to a configuration.
  std::uint64_t peak_rss_bytes = 0;
  PhaseBreakdown phases;
};

struct ScaleRun {
  int scale_labs = 0;
  std::size_t machines = 0;
  double wall_s = 0.0;
  double samples_per_s = 0.0;
  std::uint64_t attempts = 0;
  std::uint64_t peak_rss_bytes = 0;
  PhaseBreakdown phases;
};

/// One streaming-engine run of the shard sweep.
struct PipeRun {
  int shards = 0;
  double wall_s = 0.0;
  double samples_per_s = 0.0;
  double speedup = 0.0;  ///< vs the streaming shards=1 run (measured)
  std::uint64_t attempts = 0;
  std::uint64_t stream_hash = 0;
  core::PipelineStats stats;
};

std::string PipelineStatsJson(const core::PipelineStats& s,
                              const std::string& indent) {
  std::ostringstream json;
  json << "{\n"
       << indent << "  \"staged_blocks\": " << s.staged_blocks << ",\n"
       << indent << "  \"ring_capacity\": " << s.ring_capacity << ",\n"
       << indent << "  \"ring_peak_occupancy\": " << s.ring_peak_occupancy
       << ",\n"
       << indent << "  \"ring_push_stalls\": " << s.ring_push_stalls << ",\n"
       << indent << "  \"ring_pop_stalls\": " << s.ring_pop_stalls << ",\n"
       << indent << "  \"ring_push_wait_s\": "
       << util::FormatFixed(s.ring_push_wait_s, 6) << ",\n"
       << indent << "  \"ring_pop_wait_s\": "
       << util::FormatFixed(s.ring_pop_wait_s, 6) << ",\n"
       << indent << "  \"merge_lag_peak_blocks\": " << s.merge_lag_peak_blocks
       << ",\n"
       << indent << "  \"arena_acquired\": " << s.arena_acquired << ",\n"
       << indent << "  \"arena_reused\": " << s.arena_reused << ",\n"
       << indent << "  \"arena_reuse_ratio\": "
       << util::FormatFixed(s.arena_reuse_ratio, 4) << ",\n"
       << indent << "  \"wall_s\": " << util::FormatFixed(s.wall_s, 6) << ",\n"
       << indent << "  \"pipeline_wall_s\": "
       << util::FormatFixed(s.pipeline_wall_s, 6) << ",\n"
       << indent << "  \"serial_fraction\": "
       << util::FormatFixed(s.serial_fraction, 4) << "\n"
       << indent << "}";
  return json.str();
}

}  // namespace

int main() {
  const int scale_labs = EnvInt("LABMON_SCALE_LABS", 12, 1, 1024);
  const int days = EnvInt("LABMON_SCALE_DAYS", 1, 1, 10000);
  const std::vector<int> scale_sweep =
      EnvIntList("LABMON_SCALE_SWEEP", {1, 8, 48}, 1, 1024);
  const std::size_t machines = 169u * static_cast<std::size_t>(scale_labs);
  const unsigned hw_threads = std::max(1u, std::thread::hardware_concurrency());

  std::cout << std::string(72, '=') << '\n'
            << "scale_fleet: sharded simulation scaling (profiled)\n"
            << "(" << machines << " machines = 169 x " << scale_labs
            << " lab replicas, " << days << " simulated day(s), "
            << hw_threads << " hardware thread(s))\n"
            << std::string(72, '=') << "\n\n";

  core::ExperimentConfig config;
  config.campus.days = days;
  config.campus.seed = bench::BenchSeed();
  config.campus.scale_labs = scale_labs;

  auto& imbalance = obs::DefaultRegistry().GetGauge(
      "labmon_experiment_shard_imbalance_ratio");
  auto& critical_path = obs::DefaultRegistry().GetGauge(
      "labmon_prof_critical_path_fraction");

  // ---- 1. Profiler overhead: same run, profiling off then on. ----------
  // min-of-3 each way: on shared/1-core hosts the scheduler noise on a
  // ~100 ms run dwarfs the profiler's real cost, and min() is the robust
  // estimator of the noise-free wall time.
  config.shards = 1;
  const TimedRun off_a = Run(config);
  double off_wall = off_a.wall_s;
  std::uint64_t off_hash = off_a.trace_hash;
  for (int rep = 0; rep < 2; ++rep) {
    off_wall = std::min(off_wall, Run(config).wall_s);
  }

  obs::prof::Enable();
  const TimedRun on_a = Run(config);
  double on_wall = on_a.wall_s;
  bool hash_prof_invariant = on_a.trace_hash == off_hash;
  for (int rep = 0; rep < 2; ++rep) {
    obs::prof::Reset();
    const TimedRun on_rep = Run(config);
    on_wall = std::min(on_wall, on_rep.wall_s);
    hash_prof_invariant = hash_prof_invariant && on_rep.trace_hash == off_hash;
  }
  const double overhead_pct =
      off_wall > 0.0 ? 100.0 * (on_wall - off_wall) / off_wall : 0.0;

  std::cout << "profiler overhead: off "
            << util::FormatFixed(off_wall, 3) << " s, on "
            << util::FormatFixed(on_wall, 3) << " s => "
            << util::FormatFixed(overhead_pct, 2) << "% ("
            << (hash_prof_invariant ? "trace hash unchanged"
                                    : "TRACE HASH CHANGED")
            << ")\n\n";

  // ---- 2. Shard sweep at the default fleet size. -----------------------
  std::vector<ShardRun> runs;
  bool bit_identical = true;
  obs::prof::Report last_report;
  for (const int shards : {1, 2, 4, 8}) {
    config.shards = shards;
    obs::prof::Reset();
    const TimedRun timed = Run(config);
    last_report = obs::prof::Drain();

    ShardRun run;
    run.shards = shards;
    run.wall_s = timed.wall_s;
    run.attempts = timed.result.run_stats.attempts;
    run.samples_per_s =
        run.wall_s > 0.0 ? static_cast<double>(run.attempts) / run.wall_s : 0.0;
    run.speedup = runs.empty() ? 1.0 : runs.front().wall_s / run.wall_s;
    // The gauge holds max/mean of the shard walls; sum/max = shards / it.
    const double ratio = imbalance.value();
    run.load_balance_bound = ratio > 0.0 ? shards / ratio : 1.0;
    run.critical_path_fraction = critical_path.value();
    run.trace_hash = timed.trace_hash;
    run.peak_rss_bytes = timed.peak_rss_bytes;
    run.phases = Breakdown(last_report);
    if (!runs.empty() && run.trace_hash != runs.front().trace_hash) {
      bit_identical = false;
    }
    runs.push_back(run);

    std::cout << "shards=" << shards << ": " << util::FormatFixed(run.wall_s, 3)
              << " s, " << util::FormatFixed(run.samples_per_s, 0)
              << " machine-samples/s, speedup "
              << util::FormatFixed(run.speedup, 2) << "x (balance bound "
              << util::FormatFixed(run.load_balance_bound, 2)
              << "x, serial fraction "
              << util::FormatFixed(run.critical_path_fraction, 3) << "), hash "
              << run.trace_hash << ", peak rss "
              << util::FormatFixed(
                     static_cast<double>(run.peak_rss_bytes) / (1024.0 * 1024.0),
                     1)
              << " MiB\n";
    std::cout << "  phases: simulate "
              << util::FormatFixed(
                     run.phases.self_s[static_cast<int>(
                         obs::prof::Phase::kSimulate)], 3)
              << " s, probe "
              << util::FormatFixed(
                     run.phases.self_s[static_cast<int>(
                         obs::prof::Phase::kProbe)], 3)
              << " s, merge "
              << util::FormatFixed(
                     run.phases.self_s[static_cast<int>(
                         obs::prof::Phase::kMerge)], 3)
              << " s\n";
  }
  const bool prof_hash_stable = runs.front().trace_hash == off_a.trace_hash;

  // ---- 2b. Streaming engine sweep. -------------------------------------
  // Same campus through core::StreamingExperiment at {1, 2, 8} shards. The
  // merged sample-stream hash must match the materialised trace's at every
  // shard count (bit-identical streaming), and the serial fraction — the
  // share of wall time outside the overlapped collect/merge/fold region —
  // is the number prof_gate pins (budget: <= 0.10).
  const std::uint64_t mat_stream_hash = [&] {
    trace::StoreReader reader(off_a.result.trace);
    return trace::HashSampleStream(reader);
  }();
  std::vector<PipeRun> pipe_runs;
  bool pipeline_bit_identical = true;
  for (const int shards : {1, 2, 8}) {
    config.shards = shards;
    core::StreamingOptions options;  // in-memory, default block/ring sizes
    obs::prof::Reset();
    const auto start = std::chrono::steady_clock::now();
    const auto result = core::StreamingExperiment::Run(config, options);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (!result.errors.empty()) {
      for (const auto& error : result.errors) {
        std::cerr << "pipeline error: " << error << "\n";
      }
      return 1;
    }

    PipeRun run;
    run.shards = shards;
    run.wall_s = wall;
    run.attempts = result.run_stats.attempts;
    run.samples_per_s =
        wall > 0.0 ? static_cast<double>(run.attempts) / wall : 0.0;
    run.speedup = pipe_runs.empty() ? 1.0 : pipe_runs.front().wall_s / wall;
    run.stream_hash = result.stream_hash;
    run.stats = result.pipeline;
    pipeline_bit_identical =
        pipeline_bit_identical && run.stream_hash == mat_stream_hash;
    pipe_runs.push_back(run);

    std::cout << "streaming shards=" << shards << ": "
              << util::FormatFixed(run.wall_s, 3) << " s, "
              << util::FormatFixed(run.samples_per_s, 0)
              << " machine-samples/s, serial fraction "
              << util::FormatFixed(run.stats.serial_fraction, 3)
              << ", ring peak " << run.stats.ring_peak_occupancy << "/"
              << run.stats.ring_capacity << ", arena reuse "
              << util::FormatFixed(100.0 * run.stats.arena_reuse_ratio, 1)
              << "%, hash " << (run.stream_hash == mat_stream_hash
                                    ? "matches materialised"
                                    : "MISMATCH")
              << "\n";
  }
  const PipeRun& pipe_wide = pipe_runs.back();  // 8 shards

  // ---- 3. Fleet-size sweep (shards=1). ---------------------------------
  std::vector<ScaleRun> scale_runs;
  for (const int k : scale_sweep) {
    core::ExperimentConfig scaled = config;
    scaled.shards = 1;
    scaled.campus.scale_labs = k;
    obs::prof::Reset();
    const TimedRun timed = Run(scaled);
    const obs::prof::Report report = obs::prof::Drain();

    ScaleRun run;
    run.scale_labs = k;
    run.machines = 169u * static_cast<std::size_t>(k);
    run.wall_s = timed.wall_s;
    run.attempts = timed.result.run_stats.attempts;
    run.samples_per_s =
        run.wall_s > 0.0 ? static_cast<double>(run.attempts) / run.wall_s : 0.0;
    run.peak_rss_bytes = timed.peak_rss_bytes;
    run.phases = Breakdown(report);
    scale_runs.push_back(run);

    std::cout << "scale_labs=" << k << " (" << run.machines << " machines): "
              << util::FormatFixed(run.wall_s, 3) << " s, "
              << util::FormatFixed(run.samples_per_s, 0)
              << " machine-samples/s\n";
  }
  obs::prof::Disable();

  // ---- BENCH_scale.json ------------------------------------------------
  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"scale_fleet\",\n"
       << "  \"machines\": " << machines << ",\n"
       << "  \"scale_labs\": " << scale_labs << ",\n"
       << "  \"days\": " << days << ",\n"
       << "  \"hw_threads\": " << hw_threads << ",\n"
       << "  \"peak_rss_bytes\": " << bench::PeakRssBytes() << ",\n"
       << "  \"bit_identical\": " << (bit_identical ? "true" : "false")
       << ",\n"
       << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const ShardRun& run = runs[i];
    json << "    {\n"
         << "      \"shards\": " << run.shards << ",\n"
         << "      \"wall_s\": " << util::FormatFixed(run.wall_s, 6) << ",\n"
         << "      \"attempts\": " << run.attempts << ",\n"
         << "      \"machine_samples_per_s\": "
         << util::FormatFixed(run.samples_per_s, 1) << ",\n"
         << "      \"speedup\": " << util::FormatFixed(run.speedup, 4) << ",\n"
         << "      \"load_balance_speedup_bound\": "
         << util::FormatFixed(run.load_balance_bound, 4) << ",\n"
         << "      \"critical_path_fraction\": "
         << util::FormatFixed(run.critical_path_fraction, 4) << ",\n"
         << "      \"trace_hash\": " << run.trace_hash << ",\n"
         << "      \"peak_rss_bytes\": " << run.peak_rss_bytes << ",\n"
         << "      \"phases\": " << BreakdownJson(run.phases, "      ") << "\n"
         << "    }" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"pipeline_runs\": [\n";
  for (std::size_t i = 0; i < pipe_runs.size(); ++i) {
    const PipeRun& run = pipe_runs[i];
    json << "    {\n"
         << "      \"shards\": " << run.shards << ",\n"
         << "      \"wall_s\": " << util::FormatFixed(run.wall_s, 6) << ",\n"
         << "      \"attempts\": " << run.attempts << ",\n"
         << "      \"machine_samples_per_s\": "
         << util::FormatFixed(run.samples_per_s, 1) << ",\n"
         << "      \"speedup\": " << util::FormatFixed(run.speedup, 4) << ",\n"
         << "      \"stream_hash_matches_materialised\": "
         << (run.stream_hash == mat_stream_hash ? "true" : "false") << ",\n"
         << "      \"pipeline\": " << PipelineStatsJson(run.stats, "      ")
         << "\n"
         << "    }" << (i + 1 < pipe_runs.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"scale_sweep\": [\n";
  for (std::size_t i = 0; i < scale_runs.size(); ++i) {
    const ScaleRun& run = scale_runs[i];
    json << "    {\n"
         << "      \"scale_labs\": " << run.scale_labs << ",\n"
         << "      \"machines\": " << run.machines << ",\n"
         << "      \"wall_s\": " << util::FormatFixed(run.wall_s, 6) << ",\n"
         << "      \"attempts\": " << run.attempts << ",\n"
         << "      \"machine_samples_per_s\": "
         << util::FormatFixed(run.samples_per_s, 1) << ",\n"
         << "      \"peak_rss_bytes\": " << run.peak_rss_bytes << ",\n"
         << "      \"phases\": " << BreakdownJson(run.phases, "      ") << "\n"
         << "    }" << (i + 1 < scale_runs.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  if (const auto written = util::WriteTextFile("BENCH_scale.json", json.str());
      !written.ok()) {
    std::cerr << "failed to write BENCH_scale.json: " << written.error()
              << "\n";
    return 1;
  }

  // ---- BENCH_prof.json (prof_gate input) -------------------------------
  const ShardRun& four = runs[2];
  std::ostringstream prof_json;
  prof_json << "{\n"
            << "  \"bench\": \"scale_fleet\",\n"
            << "  \"machines\": " << machines << ",\n"
            << "  \"days\": " << days << ",\n"
            << "  \"hw_threads\": " << hw_threads << ",\n"
            << "  \"overhead_pct\": " << util::FormatFixed(overhead_pct, 3)
            << ",\n"
            << "  \"overhead_off_wall_s\": " << util::FormatFixed(off_wall, 6)
            << ",\n"
            << "  \"overhead_on_wall_s\": " << util::FormatFixed(on_wall, 6)
            << ",\n"
            << "  \"hash_prof_invariant\": "
            << (hash_prof_invariant && prof_hash_stable ? "true" : "false")
            << ",\n"
            << "  \"bit_identical\": " << (bit_identical ? "true" : "false")
            << ",\n"
            << "  \"speedup_4\": " << util::FormatFixed(four.speedup, 4)
            << ",\n"
            << "  \"load_balance_bound_4\": "
            << util::FormatFixed(four.load_balance_bound, 4) << ",\n"
            << "  \"critical_path_fraction_4\": "
            << util::FormatFixed(four.critical_path_fraction, 4) << ",\n"
            << "  \"pipeline_bit_identical\": "
            << (pipeline_bit_identical ? "true" : "false") << ",\n"
            << "  \"pipeline_serial_fraction_8\": "
            << util::FormatFixed(pipe_wide.stats.serial_fraction, 4) << ",\n"
            << "  \"pipeline_serial_s_8\": "
            << util::FormatFixed(
                   pipe_wide.stats.wall_s - pipe_wide.stats.pipeline_wall_s, 6)
            << ",\n"
            << "  \"pipeline_speedup_8\": "
            << util::FormatFixed(pipe_wide.speedup, 4) << ",\n"
            << "  \"pipeline_8\": " << PipelineStatsJson(pipe_wide.stats, "  ")
            << ",\n"
            << "  \"phases_4\": " << BreakdownJson(four.phases, "  ") << ",\n"
            << "  \"prof\": " << obs::prof::ReportJson(last_report) << "\n"
            << "}\n";
  if (const auto written =
          util::WriteTextFile("BENCH_prof.json", prof_json.str());
      !written.ok()) {
    std::cerr << "failed to write BENCH_prof.json: " << written.error()
              << "\n";
    return 1;
  }

  // ---- BENCH_prof_trace.json (chrome://tracing timeline) ---------------
  {
    std::ofstream trace_out("BENCH_prof_trace.json");
    obs::WriteChromeTrace(last_report, trace_out);
    if (!trace_out) {
      std::cerr << "failed to write BENCH_prof_trace.json\n";
      return 1;
    }
  }

  if (!bit_identical) {
    std::cerr << "FAIL: trace hashes differ across shard counts\n";
    return 1;
  }
  if (!pipeline_bit_identical) {
    std::cerr << "FAIL: streaming-engine stream hash differs from the "
                 "materialised trace\n";
    return 1;
  }
  if (!hash_prof_invariant || !prof_hash_stable) {
    std::cerr << "FAIL: profiling changed the trace hash\n";
    return 1;
  }
  std::cout << "\nwrote BENCH_scale.json, BENCH_prof.json, "
            << "BENCH_prof_trace.json (bit-identical across shard counts "
            << "and engines; balance bound at 4 shards: "
            << util::FormatFixed(four.load_balance_bound, 2)
            << "x; streaming serial fraction at 8 shards: "
            << util::FormatFixed(pipe_wide.stats.serial_fraction, 3) << ")\n";
  return 0;
}
