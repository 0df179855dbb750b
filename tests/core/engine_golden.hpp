// The golden references shared by the engine determinism suites: the
// materialised engine's 2-day paper run, its sample-stream hash and its
// analysis fold, plus the bit-identity checks every streamed run is held
// to.
#pragma once

#include <cstdint>
#include <utility>

#include <gtest/gtest.h>

#include "labmon/analysis/stream_fold.hpp"
#include "labmon/core/experiment.hpp"
#include "labmon/core/streaming.hpp"
#include "labmon/trace/block.hpp"

namespace labmon::core::testing {

inline constexpr int kDays = 2;
inline constexpr std::uint64_t kSeed = 20050201;

inline core::ExperimentConfig GoldenConfig(int shards) {
  core::ExperimentConfig config;
  config.campus.days = kDays;
  config.campus.seed = kSeed;
  config.shards = shards;
  return config;
}

inline const core::ExperimentResult& Materialised() {
  static const core::ExperimentResult result =
      core::Experiment::Run(GoldenConfig(1));
  return result;
}

/// The sample-stream hash of a materialised trace.
inline std::uint64_t StoreHash(const trace::TraceStore& store) {
  trace::StoreReader reader(store);
  return trace::HashSampleStream(reader);
}

inline std::uint64_t MaterialisedHash() {
  return StoreHash(Materialised().trace);
}

/// The streaming fold over a materialised run's trace — the fold is pinned
/// bit-identical to the chunked AnalysisPipeline by test_stream_fold.
inline analysis::StreamingAnalysisResult FoldMaterialised(
    const core::ExperimentResult& run) {
  analysis::StreamingAnalysisConfig config;
  config.machine_count = run.trace.machine_count();
  config.perf_index = run.perf_index;
  std::size_t first = 0;
  for (const auto& lab : run.labs) {
    config.labs.push_back(analysis::LabKey{lab.name, first, lab.machine_count});
    first += lab.machine_count;
  }
  config.experiment_days = run.days;
  analysis::StreamingAnalysis fold(std::move(config));
  trace::StoreReader reader(run.trace);
  while (const trace::TraceBlock* block = reader.Next()) fold.Accept(*block);
  trace::TraceStore summary(run.trace.machine_count());
  for (const auto& info : run.trace.iterations()) summary.AppendIteration(info);
  return fold.Finish(summary);
}

inline const analysis::StreamingAnalysisResult& MaterialisedAnalysis() {
  static const analysis::StreamingAnalysisResult result =
      FoldMaterialised(Materialised());
  return result;
}

inline void ExpectAnalysisIdentical(
    const analysis::StreamingAnalysisResult& a,
    const analysis::StreamingAnalysisResult& b) {
  // Bit-identical, not approximately equal: every comparison is EXPECT_EQ
  // on the raw doubles.
  const auto expect_column = [](const analysis::Table2Column& x,
                                const analysis::Table2Column& y) {
    EXPECT_EQ(x.samples, y.samples);
    EXPECT_EQ(x.uptime_pct, y.uptime_pct);
    EXPECT_EQ(x.cpu_idle_pct, y.cpu_idle_pct);
    EXPECT_EQ(x.ram_load_pct, y.ram_load_pct);
    EXPECT_EQ(x.swap_load_pct, y.swap_load_pct);
    EXPECT_EQ(x.disk_used_gb, y.disk_used_gb);
    EXPECT_EQ(x.sent_bps, y.sent_bps);
    EXPECT_EQ(x.recv_bps, y.recv_bps);
  };
  expect_column(a.table2.no_login, b.table2.no_login);
  expect_column(a.table2.with_login, b.table2.with_login);
  expect_column(a.table2.both, b.table2.both);
  EXPECT_EQ(a.table2.raw_login_samples, b.table2.raw_login_samples);
  EXPECT_EQ(a.table2.reclassified_samples, b.table2.reclassified_samples);
  EXPECT_EQ(a.availability.series.mean_powered_on,
            b.availability.series.mean_powered_on);
  EXPECT_EQ(a.availability.series.mean_user_free,
            b.availability.series.mean_user_free);
  ASSERT_EQ(a.availability.ranking.entries.size(),
            b.availability.ranking.entries.size());
  for (std::size_t i = 0; i < a.availability.ranking.entries.size(); ++i) {
    EXPECT_EQ(a.availability.ranking.entries[i].machine,
              b.availability.ranking.entries[i].machine);
    EXPECT_EQ(a.availability.ranking.entries[i].uptime_ratio,
              b.availability.ranking.entries[i].uptime_ratio);
  }
  ASSERT_EQ(a.session_hours.bins.size(), b.session_hours.bins.size());
  for (std::size_t i = 0; i < a.session_hours.bins.size(); ++i) {
    EXPECT_EQ(a.session_hours.bins[i].samples,
              b.session_hours.bins[i].samples);
    EXPECT_EQ(a.session_hours.bins[i].mean_cpu_idle_pct,
              b.session_hours.bins[i].mean_cpu_idle_pct);
  }
  ASSERT_EQ(a.weekly.cpu_idle_pct.bin_count(),
            b.weekly.cpu_idle_pct.bin_count());
  for (std::size_t i = 0; i < a.weekly.cpu_idle_pct.bin_count(); ++i) {
    EXPECT_EQ(a.weekly.cpu_idle_pct.Mean(i), b.weekly.cpu_idle_pct.Mean(i));
    EXPECT_EQ(a.weekly.ram_load_pct.Mean(i), b.weekly.ram_load_pct.Mean(i));
  }
  EXPECT_EQ(a.equivalence.mean_occupied, b.equivalence.mean_occupied);
  EXPECT_EQ(a.equivalence.mean_free, b.equivalence.mean_free);
  EXPECT_EQ(a.equivalence.mean_total, b.equivalence.mean_total);
  EXPECT_EQ(a.stability.sessions.session_count,
            b.stability.sessions.session_count);
  EXPECT_EQ(a.stability.sessions.mean_hours, b.stability.sessions.mean_hours);
  EXPECT_EQ(a.stability.smart.experiment_cycles,
            b.stability.smart.experiment_cycles);
  EXPECT_EQ(a.stability.smart.cycles_per_machine_mean,
            b.stability.smart.cycles_per_machine_mean);
  ASSERT_EQ(a.per_lab.usage.size(), b.per_lab.usage.size());
  for (std::size_t i = 0; i < a.per_lab.usage.size(); ++i) {
    EXPECT_EQ(a.per_lab.usage[i].occupied_pct,
              b.per_lab.usage[i].occupied_pct);
    EXPECT_EQ(a.per_lab.usage[i].cpu_idle_pct,
              b.per_lab.usage[i].cpu_idle_pct);
    EXPECT_EQ(a.per_lab.usage[i].uptime_pct, b.per_lab.usage[i].uptime_pct);
  }
  EXPECT_EQ(a.capacity.mean_ram_gb, b.capacity.mean_ram_gb);
  EXPECT_EQ(a.capacity.p10_ram_gb, b.capacity.p10_ram_gb);
  EXPECT_EQ(a.capacity.mean_disk_tb, b.capacity.mean_disk_tb);
  EXPECT_EQ(a.capacity.p10_disk_tb, b.capacity.p10_disk_tb);
  ASSERT_EQ(a.capacity.ram_gb.size(), b.capacity.ram_gb.size());
  for (std::size_t i = 0; i < a.capacity.ram_gb.size(); ++i) {
    EXPECT_EQ(a.capacity.ram_gb[i].value, b.capacity.ram_gb[i].value);
  }
}

inline void ExpectRunIdentical(const core::StreamingExperimentResult& run) {
  const core::ExperimentResult& golden = Materialised();
  ASSERT_TRUE(run.errors.empty())
      << "first error: " << run.errors.front();
  EXPECT_EQ(run.stream_hash, MaterialisedHash());
  EXPECT_EQ(run.samples, golden.trace.size());
  EXPECT_EQ(run.run_stats.iterations, golden.run_stats.iterations);
  EXPECT_EQ(run.run_stats.attempts, golden.run_stats.attempts);
  EXPECT_EQ(run.run_stats.successes, golden.run_stats.successes);
  EXPECT_EQ(run.run_stats.timeouts, golden.run_stats.timeouts);
  EXPECT_EQ(run.run_stats.missing, golden.run_stats.missing);
  EXPECT_EQ(run.run_stats.corrupt, golden.run_stats.corrupt);
  EXPECT_EQ(run.run_stats.mean_iteration_s,
            golden.run_stats.mean_iteration_s);
  EXPECT_EQ(run.ground_truth.boots, golden.ground_truth.boots);
  EXPECT_EQ(run.ground_truth.TotalLogins(),
            golden.ground_truth.TotalLogins());
  EXPECT_EQ(run.parse_failures, golden.parse_failures);
  EXPECT_EQ(run.crosscheck_mismatches, golden.crosscheck_mismatches);
  EXPECT_EQ(run.summary.iterations().size(),
            golden.trace.iterations().size());
  EXPECT_EQ(run.perf_index, golden.perf_index);
  ExpectAnalysisIdentical(run.analysis, MaterialisedAnalysis());
}

/// Every campaign total the engines assemble from their per-lab tallies:
/// the ten attempt counters, the iteration aggregates, all nine
/// ground-truth counters and the parse / cross-check tallies. Works for any
/// pair of ExperimentResult / StreamingExperimentResult.
template <typename A, typename B>
void ExpectTotalsIdentical(const A& a, const B& b) {
  const ddc::RunStats& x = a.run_stats;
  const ddc::RunStats& y = b.run_stats;
  EXPECT_EQ(x.iterations, y.iterations);
  EXPECT_EQ(x.attempts, y.attempts);
  EXPECT_EQ(x.successes, y.successes);
  EXPECT_EQ(x.timeouts, y.timeouts);
  EXPECT_EQ(x.errors, y.errors);
  EXPECT_EQ(x.missing, y.missing);
  EXPECT_EQ(x.corrupt, y.corrupt);
  EXPECT_EQ(x.recovered_after_retry, y.recovered_after_retry);
  EXPECT_EQ(x.retry_attempts, y.retry_attempts);
  EXPECT_EQ(x.retried_collections, y.retried_collections);
  EXPECT_EQ(x.faults_injected, y.faults_injected);
  EXPECT_EQ(x.total_span_s, y.total_span_s);
  EXPECT_EQ(x.max_iteration_s, y.max_iteration_s);
  EXPECT_EQ(x.mean_iteration_s, y.mean_iteration_s);
  const workload::GroundTruth& t = a.ground_truth;
  const workload::GroundTruth& u = b.ground_truth;
  EXPECT_EQ(t.boots, u.boots);
  EXPECT_EQ(t.shutdowns, u.shutdowns);
  EXPECT_EQ(t.reboots, u.reboots);
  EXPECT_EQ(t.short_cycles, u.short_cycles);
  EXPECT_EQ(t.class_logins, u.class_logins);
  EXPECT_EQ(t.walkin_logins, u.walkin_logins);
  EXPECT_EQ(t.forgotten_sessions, u.forgotten_sessions);
  EXPECT_EQ(t.lost_arrivals, u.lost_arrivals);
  EXPECT_EQ(t.sweep_shutdowns, u.sweep_shutdowns);
  EXPECT_EQ(a.parse_failures, b.parse_failures);
  EXPECT_EQ(a.crosscheck_mismatches, b.crosscheck_mismatches);
}

}  // namespace labmon::core::testing
