// Pipelined-engine determinism suite — the overlapped engine's contract:
// windowed lockstep collection, the staging-ring merge and the threaded
// analysis fold must reproduce the materialised engine bit-for-bit for
// any shard count, block size and ring capacity (including
// the degenerate capacity-1 ring, which forces constant backpressure),
// checkpoints must interoperate with StreamingExperiment spill dirs in
// both directions, and a failing lab must abort the pipeline promptly
// instead of deadlocking a parked stage.
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine_golden.hpp"
#include "labmon/core/experiment.hpp"
#include "labmon/core/streaming.hpp"

namespace labmon {
namespace {

using core::testing::ExpectAnalysisIdentical;
using core::testing::ExpectRunIdentical;
using core::testing::ExpectTotalsIdentical;
using core::testing::GoldenConfig;

TEST(PipelinedDeterminismTest, DefaultsMatchMaterialisedEngine) {
  core::StreamingOptions options;
  const auto piped = core::PipelinedExperiment::Run(GoldenConfig(1), options);
  ExpectRunIdentical(piped);
  EXPECT_GT(piped.pipeline.staged_blocks, 0u);
  EXPECT_EQ(piped.pipeline.ring_capacity, options.ring_capacity);
}

TEST(PipelinedDeterminismTest, ShardWindowBlockAndRingAreInvisible) {
  struct Case {
    int shards;
    std::size_t block_samples;
    std::size_t ring_capacity;
  };
  // Representative corners of the {shards} x {block} x {ring} matrix,
  // including tiny blocks (merged block per sample) and the capacity-1
  // ring under many shards (constant backpressure, labs completing out of
  // order).
  const Case cases[] = {
      {2, 97, 4},
      {8, 1, 1},
      {4, 65536, 64},
      {8, 4096, 1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("shards=" + std::to_string(c.shards) +
                 " block=" + std::to_string(c.block_samples) +
                 " ring=" + std::to_string(c.ring_capacity));
    core::StreamingOptions options;
    options.block_samples = c.block_samples;
    options.ring_capacity = c.ring_capacity;
    const auto piped =
        core::PipelinedExperiment::Run(GoldenConfig(c.shards), options);
    ExpectRunIdentical(piped);
  }
}

TEST(PipelinedDeterminismTest, SpilledRunMatchesAndCheckpoints) {
  const std::string dir = ::testing::TempDir() + "/labmon_pipe_spill";
  std::filesystem::remove_all(dir);
  core::StreamingOptions options;
  options.spill_dir = dir;
  options.block_samples = 4096;
  options.ring_capacity = 4;
  const auto piped = core::PipelinedExperiment::Run(GoldenConfig(2), options);
  ExpectRunIdentical(piped);
  EXPECT_GT(piped.merged_blocks, 1u);
  std::size_t segments = 0;
  std::size_t sidecars = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string path = entry.path().string();
    if (path.ends_with(".lmsg")) ++segments;
    if (path.ends_with(".ck")) ++sidecars;
  }
  EXPECT_EQ(segments, piped.labs.size());
  EXPECT_EQ(sidecars, piped.labs.size());
}

TEST(PipelinedDeterminismTest, ResumesStreamingCheckpointsAndViceVersa) {
  // Checkpoints are engine-portable: a pipelined run resumes a streaming
  // spill dir (replaying segments through the ring concurrently with live
  // simulation) and a streaming run resumes a pipelined spill dir.
  const std::string dir = ::testing::TempDir() + "/labmon_pipe_cross";
  std::filesystem::remove_all(dir);
  core::StreamingOptions options;
  options.spill_dir = dir;
  options.block_samples = 4096;
  const auto seeded = core::StreamingExperiment::Run(GoldenConfig(2), options);
  ASSERT_TRUE(seeded.errors.empty());
  const std::size_t lab_count = seeded.labs.size();
  ASSERT_GE(lab_count, 2u);

  // Crash two labs: a truncated segment and a lost sidecar.
  {
    const std::string seg0 = dir + "/lab0000.lmsg";
    const std::uintmax_t size = std::filesystem::file_size(seg0);
    std::filesystem::resize_file(seg0, size / 2);
    std::filesystem::remove(dir + "/lab0000.ck");
    std::filesystem::remove(dir + "/lab0001.ck");
  }
  core::StreamingOptions resume_options = options;
  resume_options.resume = true;
  resume_options.ring_capacity = 2;
  const auto piped =
      core::PipelinedExperiment::Run(GoldenConfig(2), resume_options);
  EXPECT_EQ(piped.labs_resumed, lab_count - 2);
  ExpectRunIdentical(piped);

  // Reverse direction: crash a lab of the (pipelined-written) spill dir
  // and resume it with the streaming engine.
  std::filesystem::remove(dir + "/lab0001.ck");
  const auto streamed =
      core::StreamingExperiment::Run(GoldenConfig(2), resume_options);
  EXPECT_EQ(streamed.labs_resumed, lab_count - 1);
  ASSERT_TRUE(streamed.errors.empty());
  EXPECT_EQ(streamed.stream_hash, piped.stream_hash);
}

TEST(PipelinedDeterminismTest, CrossCodecResumeIsBitIdenticalBothWays) {
  // A pipelined campaign written under one spill codec resumes under the
  // other: re-simulated labs spill in the new format, survivors replay
  // from the old one, and the merged stream is bit-identical either way.
  const std::string dir = ::testing::TempDir() + "/labmon_pipe_codec";
  std::filesystem::remove_all(dir);
  core::StreamingOptions options;
  options.spill_dir = dir;
  options.block_samples = 4096;
  options.spill_codec = trace::SpillCodecId::kLmsg1;
  const auto first = core::PipelinedExperiment::Run(GoldenConfig(2), options);
  ASSERT_TRUE(first.errors.empty());
  const std::size_t lab_count = first.labs.size();
  ASSERT_GE(lab_count, 2u);
  EXPECT_EQ(first.spill.codec, "lmsg1");
  EXPECT_EQ(first.spill.samples_encoded, first.samples);

  std::filesystem::remove(dir + "/lab0000.ck");
  std::filesystem::remove(dir + "/lab0001.ck");
  core::StreamingOptions resume_options = options;
  resume_options.resume = true;
  resume_options.spill_codec = trace::SpillCodecId::kLmsg2;
  const auto second =
      core::PipelinedExperiment::Run(GoldenConfig(2), resume_options);
  EXPECT_EQ(second.labs_resumed, lab_count - 2);
  ExpectRunIdentical(second);
  EXPECT_EQ(second.stream_hash, first.stream_hash);

  // Reverse direction over the now-mixed directory: lose an LMSG2 lab's
  // checkpoint and resume requesting LMSG1 again.
  std::filesystem::remove(dir + "/lab0000.ck");
  resume_options.spill_codec = trace::SpillCodecId::kLmsg1;
  const auto third =
      core::PipelinedExperiment::Run(GoldenConfig(2), resume_options);
  EXPECT_EQ(third.labs_resumed, lab_count - 1);
  ExpectRunIdentical(third);
  EXPECT_EQ(third.stream_hash, first.stream_hash);
}

TEST(PipelinedDeterminismTest, AllLabsResumedSkipsSimulation) {
  const std::string dir = ::testing::TempDir() + "/labmon_pipe_all_resumed";
  std::filesystem::remove_all(dir);
  core::StreamingOptions options;
  options.spill_dir = dir;
  options.block_samples = 4096;
  const auto first = core::PipelinedExperiment::Run(GoldenConfig(2), options);
  ASSERT_TRUE(first.errors.empty());
  core::StreamingOptions resume_options = options;
  resume_options.resume = true;
  const auto second =
      core::PipelinedExperiment::Run(GoldenConfig(2), resume_options);
  EXPECT_EQ(second.labs_resumed, first.labs.size());
  ExpectRunIdentical(second);
}

TEST(PipelinedDeterminismTest, FaultedRunMatchesStreamingEngine) {
  // Under an active fault scenario the output differs from the clean
  // golden, but the pipelined and streaming engines must still agree
  // bit-for-bit with each other.
  core::ExperimentConfig config = GoldenConfig(4);
  config.fault_plan.enabled = true;
  config.fault_plan.stochastic.transient_error_prob = 0.01;
  config.fault_plan.stochastic.wire_corruption_prob = 0.005;
  config.fault_plan.stochastic.straggler_prob = 0.01;

  core::StreamingOptions options;
  options.block_samples = 2048;
  options.ring_capacity = 4;
  const auto streamed = core::StreamingExperiment::Run(config, options);
  ASSERT_TRUE(streamed.errors.empty());
  const auto piped = core::PipelinedExperiment::Run(config, options);
  ASSERT_TRUE(piped.errors.empty());
  EXPECT_GT(piped.run_stats.faults_injected, 0u);
  EXPECT_EQ(piped.stream_hash, streamed.stream_hash);
  EXPECT_EQ(piped.samples, streamed.samples);
  EXPECT_EQ(piped.merged_blocks, streamed.merged_blocks);
  EXPECT_EQ(piped.run_stats.attempts, streamed.run_stats.attempts);
  EXPECT_EQ(piped.run_stats.faults_injected,
            streamed.run_stats.faults_injected);
  EXPECT_EQ(piped.run_stats.corrupt, streamed.run_stats.corrupt);
  EXPECT_EQ(piped.parse_failures, streamed.parse_failures);
  ExpectAnalysisIdentical(piped.analysis, streamed.analysis);

  // All three engines assemble the campaign totals from the same per-lab
  // tally, so they must agree on every field, at any shard count.
  ExpectTotalsIdentical(piped, streamed);
  for (const int shards : {1, 3}) {
    SCOPED_TRACE("materialised shards=" + std::to_string(shards));
    core::ExperimentConfig materialised_config = config;
    materialised_config.shards = shards;
    const auto materialised = core::Experiment::Run(materialised_config);
    EXPECT_EQ(materialised.trace.size(), streamed.samples);
    ExpectTotalsIdentical(materialised, streamed);
  }
}

TEST(PipelinedDeterminismTest, FailingLabAbortsWithoutDeadlock) {
  // Sabotage one lab's segment path with a directory so SegmentWriter::Open
  // fails inside the first window. The run must drain the pipeline, cancel
  // the rings and return with errors — parked stages must not deadlock
  // (the test would time out if they did). A tiny ring maximises the
  // chance other producers are parked on it when the error fires.
  const std::string dir = ::testing::TempDir() + "/labmon_pipe_fail";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir + "/lab0000.lmsg");
  core::StreamingOptions options;
  options.spill_dir = dir;
  options.block_samples = 256;
  options.ring_capacity = 1;
  const auto piped = core::PipelinedExperiment::Run(GoldenConfig(4), options);
  ASSERT_FALSE(piped.errors.empty());
  EXPECT_EQ(piped.samples, 0u);
}

}  // namespace
}  // namespace labmon
