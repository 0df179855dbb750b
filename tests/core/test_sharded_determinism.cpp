// Sharded-engine determinism suite — the contract the sharded simulation
// lives by: the experiment's output is bit-identical for ANY shard count.
//
// Partitioning the fleet into shards changes which thread simulates which
// lab and in what real-time order, but every stochastic draw comes from a
// per-lab or per-machine substream (util::DeriveSeed) and the per-lab
// traces merge in a deterministic (iteration, t, machine) order — so shard
// count must be invisible in the result. Pinned here at 1/2/8 shards, with
// and without an active fault plan, plus the snapshot-fingerprint rules
// (shards excluded, scale_labs included). The 1-day traces are also frozen
// against FNV-1a constants captured from the collect-then-MergeTraces
// engine, an oracle that shares no code with the streaming run loop.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "labmon/core/experiment.hpp"
#include "labmon/core/snapshot.hpp"
#include "labmon/trace/binary_io.hpp"
#include "labmon/winsim/paper_specs.hpp"

namespace labmon {
namespace {

std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

core::ExperimentConfig DayConfig() {
  core::ExperimentConfig config;
  config.campus.days = 1;
  return config;
}

faultsim::FaultPlan MixedPlan() {
  faultsim::FaultPlan plan;
  plan.enabled = true;
  plan.seed = 0xc4a05u;
  plan.stochastic.transient_error_prob = 0.05;
  plan.stochastic.wire_corruption_prob = 0.01;
  plan.outages.push_back({"L03", 2 * 3600, 2 * 3600 + 30 * 60});
  return plan;
}

// FNV-1a of SerializeTrace(Experiment::Run(config).trace) for the 1-day
// config, clean and under MixedPlan with three retry attempts.
constexpr std::uint64_t kCleanDayTraceHash = 0x43ab45d7485b6c43ull;
constexpr std::uint64_t kMixedPlanDayTraceHash = 0xd9ab7389f219bdcdull;

void ExpectFrozenHash(const core::ExperimentResult& result,
                      std::uint64_t expected) {
  EXPECT_EQ(Fnv1a(trace::SerializeTrace(result.trace)), expected)
      << std::hex << "0x" << Fnv1a(trace::SerializeTrace(result.trace));
}

void ExpectIdentical(const core::ExperimentResult& a,
                     const core::ExperimentResult& b) {
  ASSERT_EQ(a.trace.size(), b.trace.size());
  EXPECT_EQ(Fnv1a(trace::SerializeTrace(a.trace)),
            Fnv1a(trace::SerializeTrace(b.trace)));
  EXPECT_EQ(a.run_stats.iterations, b.run_stats.iterations);
  EXPECT_EQ(a.run_stats.attempts, b.run_stats.attempts);
  EXPECT_EQ(a.run_stats.successes, b.run_stats.successes);
  EXPECT_EQ(a.run_stats.timeouts, b.run_stats.timeouts);
  EXPECT_EQ(a.run_stats.errors, b.run_stats.errors);
  EXPECT_EQ(a.run_stats.missing, b.run_stats.missing);
  EXPECT_EQ(a.run_stats.corrupt, b.run_stats.corrupt);
  EXPECT_EQ(a.run_stats.recovered_after_retry,
            b.run_stats.recovered_after_retry);
  EXPECT_EQ(a.run_stats.retry_attempts, b.run_stats.retry_attempts);
  EXPECT_EQ(a.run_stats.faults_injected, b.run_stats.faults_injected);
  EXPECT_DOUBLE_EQ(a.run_stats.mean_iteration_s, b.run_stats.mean_iteration_s);
  EXPECT_DOUBLE_EQ(a.run_stats.max_iteration_s, b.run_stats.max_iteration_s);
  EXPECT_EQ(a.ground_truth.boots, b.ground_truth.boots);
  EXPECT_EQ(a.ground_truth.shutdowns, b.ground_truth.shutdowns);
  EXPECT_EQ(a.ground_truth.TotalLogins(), b.ground_truth.TotalLogins());
  EXPECT_EQ(a.ground_truth.forgotten_sessions,
            b.ground_truth.forgotten_sessions);
  EXPECT_EQ(a.ground_truth.short_cycles, b.ground_truth.short_cycles);
  EXPECT_EQ(a.parse_failures, b.parse_failures);
  EXPECT_EQ(a.crosscheck_mismatches, b.crosscheck_mismatches);
}

// --- contract 1: shard-count bit-identity -----------------------------------

TEST(ShardedDeterminismTest, CleanRunBitIdenticalAcrossShardCounts) {
  core::ExperimentConfig config = DayConfig();
  config.shards = 1;
  const auto one = core::Experiment::Run(config);
  config.shards = 2;
  const auto two = core::Experiment::Run(config);
  config.shards = 8;
  const auto eight = core::Experiment::Run(config);

  ExpectIdentical(one, two);
  ExpectIdentical(one, eight);
  for (const auto* run : {&one, &two, &eight}) {
    ExpectFrozenHash(*run, kCleanDayTraceHash);
  }
}

TEST(ShardedDeterminismTest, FaultedRunBitIdenticalAcrossShardCounts) {
  core::ExperimentConfig config = DayConfig();
  config.fault_plan = MixedPlan();
  config.collector.retry.max_attempts = 3;

  config.shards = 1;
  const auto one = core::Experiment::Run(config);
  config.shards = 2;
  const auto two = core::Experiment::Run(config);
  config.shards = 8;
  const auto eight = core::Experiment::Run(config);

  // The plan must actually bite for this to mean anything.
  ASSERT_GT(one.run_stats.faults_injected, 0u);
  ExpectIdentical(one, two);
  ExpectIdentical(one, eight);
  for (const auto* run : {&one, &two, &eight}) {
    ExpectFrozenHash(*run, kMixedPlanDayTraceHash);
  }
}

// --- contract 2: fingerprint rules ------------------------------------------

TEST(ShardedDeterminismTest, ShardCountDoesNotChangeFingerprint) {
  core::ExperimentConfig config = DayConfig();
  config.shards = 1;
  const std::uint64_t fp1 = core::FingerprintConfig(config);
  config.shards = 8;
  const std::uint64_t fp8 = core::FingerprintConfig(config);
  config.shards = 0;  // auto
  const std::uint64_t fp_auto = core::FingerprintConfig(config);
  EXPECT_EQ(fp1, fp8);
  EXPECT_EQ(fp1, fp_auto);
}

TEST(ShardedDeterminismTest, ScaleLabsChangesFingerprint) {
  core::ExperimentConfig config = DayConfig();
  const std::uint64_t fp1 = core::FingerprintConfig(config);
  config.campus.scale_labs = 2;
  EXPECT_NE(core::FingerprintConfig(config), fp1);
}

// --- scaled campus ----------------------------------------------------------

TEST(ShardedDeterminismTest, ScaledFleetReplicatesPaperLabs) {
  util::Rng rng(1);
  const winsim::Fleet fleet =
      winsim::MakePaperFleet(rng, winsim::PriorLifeModel{}, 3);
  EXPECT_EQ(fleet.size(), 3u * 169u);
  ASSERT_EQ(fleet.lab_count(), 33u);
  EXPECT_EQ(fleet.labs()[0].name, "L01");
  EXPECT_EQ(fleet.labs()[11].name, "L01_2");
  EXPECT_EQ(fleet.labs()[22].name, "L01_3");
  // Replicas reuse the paper hardware.
  EXPECT_EQ(fleet.machine(fleet.labs()[22].first).spec().ram_mb,
            fleet.machine(fleet.labs()[0].first).spec().ram_mb);
}

TEST(ShardedDeterminismTest, ScaledRunBitIdenticalAcrossShardCounts) {
  core::ExperimentConfig config = DayConfig();
  config.campus.scale_labs = 2;  // 338 machines, 22 labs
  config.shards = 1;
  const auto one = core::Experiment::Run(config);
  config.shards = 8;
  const auto eight = core::Experiment::Run(config);
  EXPECT_EQ(one.trace.machine_count(), 338u);
  ExpectIdentical(one, eight);
}

}  // namespace
}  // namespace labmon
