// Streaming-engine determinism suite — the streamed campaign's contract:
// lockstep windowed collection through sealed blocks (in memory or spilled
// to disk), the staging-ring merge and the threaded analysis fold must
// reproduce the materialised engine bit-for-bit for any shard count, block
// size and ring capacity (including the degenerate capacity-1 ring, which
// forces constant backpressure); a campaign killed mid-run must resume
// from its per-lab checkpoints to the exact same result, under either
// spill codec; and a failing lab must abort the pipeline promptly instead
// of deadlocking a parked stage.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine_golden.hpp"
#include "labmon/core/experiment.hpp"
#include "labmon/core/snapshot.hpp"
#include "labmon/core/streaming.hpp"

namespace labmon {
namespace {

using core::testing::ExpectAnalysisIdentical;
using core::testing::ExpectRunIdentical;
using core::testing::ExpectTotalsIdentical;
using core::testing::FoldMaterialised;
using core::testing::GoldenConfig;
using core::testing::MaterialisedHash;
using core::testing::StoreHash;

TEST(StreamingDeterminismTest, InMemoryMatchesMaterialisedEngine) {
  core::StreamingOptions options;
  const auto streamed =
      core::StreamingExperiment::Run(GoldenConfig(1), options);
  ExpectRunIdentical(streamed);
}

TEST(StreamingDeterminismTest, ShardBlockAndRingAreInvisible) {
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
      {8, 4096, 64},
      {8, 4096, 1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("shards=" + std::to_string(c.shards) +
                 " block=" + std::to_string(c.block_samples) +
                 " ring=" + std::to_string(c.ring_capacity));
    core::StreamingOptions options;
    options.block_samples = c.block_samples;
    options.ring_capacity = c.ring_capacity;
    const auto streamed =
        core::StreamingExperiment::Run(GoldenConfig(c.shards), options);
    ExpectRunIdentical(streamed);
  }
}

TEST(StreamingDeterminismTest, ReportsPipelineHealth) {
  const std::string dir = ::testing::TempDir() + "/labmon_stream_health";
  std::filesystem::remove_all(dir);
  for (const std::string& spill_dir : {std::string(), dir}) {
    SCOPED_TRACE(spill_dir.empty() ? "in-memory" : "spilled");
    core::StreamingOptions options;
    options.spill_dir = spill_dir;
    options.block_samples = 4096;
    options.ring_capacity = 8;
    const auto streamed =
        core::StreamingExperiment::Run(GoldenConfig(2), options);
    ASSERT_TRUE(streamed.errors.empty());
    const core::PipelineStats& pipe = streamed.pipeline;
    EXPECT_GT(pipe.staged_blocks, 0u);
    EXPECT_EQ(pipe.ring_capacity, options.ring_capacity);
    EXPECT_LE(pipe.ring_peak_occupancy, pipe.ring_capacity);
    EXPECT_LE(pipe.pipeline_wall_s, pipe.wall_s);
  }
}

TEST(StreamingDeterminismTest, SpilledRunMatchesAndCheckpoints) {
  const std::string dir = ::testing::TempDir() + "/labmon_stream_spill";
  std::filesystem::remove_all(dir);
  core::StreamingOptions options;
  options.spill_dir = dir;
  options.block_samples = 4096;
  options.ring_capacity = 4;
  const auto streamed =
      core::StreamingExperiment::Run(GoldenConfig(2), options);
  ExpectRunIdentical(streamed);
  EXPECT_GT(streamed.merged_blocks, 1u);
  // Every lab left a complete segment + committed sidecar.
  std::size_t segments = 0;
  std::size_t sidecars = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string path = entry.path().string();
    if (path.ends_with(".lmsg")) ++segments;
    if (path.ends_with(".ck")) ++sidecars;
  }
  EXPECT_EQ(segments, streamed.labs.size());
  EXPECT_EQ(sidecars, streamed.labs.size());
}

TEST(StreamingDeterminismTest, CheckpointSidecarFormatIsPinned) {
  // Spill dirs written by earlier builds must stay resumable, so the
  // sidecar's magic/version line, fingerprint and key order are frozen.
  const std::string dir = ::testing::TempDir() + "/labmon_stream_sidecar";
  std::filesystem::remove_all(dir);
  core::StreamingOptions options;
  options.spill_dir = dir;
  options.block_samples = 4096;
  const core::ExperimentConfig config = GoldenConfig(2);
  const auto streamed = core::StreamingExperiment::Run(config, options);
  ASSERT_TRUE(streamed.errors.empty());

  std::ifstream file(dir + "/lab0000.ck");
  ASSERT_TRUE(file);
  std::string line;
  ASSERT_TRUE(std::getline(file, line));
  EXPECT_EQ(line, "LMSGCK 2");
  const std::pair<std::string, std::size_t> expected_keys[] = {
      {"fingerprint", 1}, {"lab", 1},   {"codec", 1},
      {"blocks", 1},      {"parse_failures", 1},
      {"crosscheck_mismatches", 1},     {"stats", 10},
      {"truth", 9}};
  for (const auto& [key, value_count] : expected_keys) {
    SCOPED_TRACE(key);
    ASSERT_TRUE(std::getline(file, line));
    std::istringstream fields(line);
    std::string name;
    fields >> name;
    EXPECT_EQ(name, key);
    std::vector<std::string> values;
    for (std::string value; fields >> value;) values.push_back(value);
    ASSERT_EQ(values.size(), value_count);
    if (key == "fingerprint") {
      EXPECT_EQ(values[0], std::to_string(core::FingerprintConfig(config)));
    } else if (key == "lab") {
      EXPECT_EQ(values[0], "0");
    } else if (key == "codec") {
      EXPECT_EQ(values[0], trace::SpillCodecName(trace::kDefaultSpillCodec));
    } else {
      for (const std::string& value : values) {
        EXPECT_EQ(value.find_first_not_of("0123456789"), std::string::npos)
            << value;
      }
    }
  }
  EXPECT_FALSE(std::getline(file, line)) << "trailing line: " << line;
}

TEST(StreamingDeterminismTest, ResumeAfterSimulatedCrashReproduces) {
  const std::string dir = ::testing::TempDir() + "/labmon_stream_resume";
  std::filesystem::remove_all(dir);
  core::StreamingOptions options;
  options.spill_dir = dir;
  options.block_samples = 4096;
  const auto first =
      core::StreamingExperiment::Run(GoldenConfig(2), options);
  ASSERT_TRUE(first.errors.empty());
  const std::size_t lab_count = first.labs.size();
  ASSERT_GE(lab_count, 2u);

  // Simulate a crash mid-campaign: lab 0 died mid-write (truncated
  // segment, sidecar never committed) and lab 1's checkpoint was lost.
  {
    const std::string seg0 = dir + "/lab0000.lmsg";
    const std::uintmax_t size = std::filesystem::file_size(seg0);
    std::filesystem::resize_file(seg0, size / 2);
    std::filesystem::remove(dir + "/lab0000.ck");
    std::filesystem::remove(dir + "/lab0001.ck");
  }

  // The survivors replay through a small ring concurrently with the
  // re-simulated labs.
  core::StreamingOptions resume_options = options;
  resume_options.resume = true;
  resume_options.ring_capacity = 2;
  const auto resumed =
      core::StreamingExperiment::Run(GoldenConfig(2), resume_options);
  EXPECT_EQ(resumed.labs_resumed, lab_count - 2);
  ExpectRunIdentical(resumed);
  EXPECT_EQ(resumed.stream_hash, first.stream_hash);

  // A checkpoint written by a resumed run resumes again: lose one more
  // lab of the now-mixed spill dir.
  std::filesystem::remove(dir + "/lab0001.ck");
  const auto again =
      core::StreamingExperiment::Run(GoldenConfig(2), resume_options);
  EXPECT_EQ(again.labs_resumed, lab_count - 1);
  ExpectRunIdentical(again);
}

TEST(StreamingDeterminismTest, CrossCodecResumeIsBitIdenticalBothWays) {
  // A campaign written under one spill codec resumes under the other:
  // re-simulated labs spill in the new format, survivors replay from the
  // old one, and the merged stream is bit-identical either way.
  const std::string dir = ::testing::TempDir() + "/labmon_stream_codec";
  std::filesystem::remove_all(dir);
  core::StreamingOptions options;
  options.spill_dir = dir;
  options.block_samples = 4096;
  options.spill_codec = trace::SpillCodecId::kLmsg1;
  const auto first = core::StreamingExperiment::Run(GoldenConfig(2), options);
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
      core::StreamingExperiment::Run(GoldenConfig(2), resume_options);
  EXPECT_EQ(second.labs_resumed, lab_count - 2);
  ExpectRunIdentical(second);
  EXPECT_EQ(second.stream_hash, first.stream_hash);
  EXPECT_EQ(second.spill.codec, "lmsg2");

  // Reverse direction over the now-mixed directory: lose an LMSG2 lab's
  // checkpoint and resume requesting LMSG1 again.
  std::filesystem::remove(dir + "/lab0000.ck");
  resume_options.spill_codec = trace::SpillCodecId::kLmsg1;
  const auto third =
      core::StreamingExperiment::Run(GoldenConfig(2), resume_options);
  EXPECT_EQ(third.labs_resumed, lab_count - 1);
  ExpectRunIdentical(third);
  EXPECT_EQ(third.stream_hash, first.stream_hash);
}

TEST(StreamingDeterminismTest, AllLabsResumedSkipsSimulation) {
  const std::string dir = ::testing::TempDir() + "/labmon_stream_all_resumed";
  std::filesystem::remove_all(dir);
  core::StreamingOptions options;
  options.spill_dir = dir;
  options.block_samples = 4096;
  const auto first = core::StreamingExperiment::Run(GoldenConfig(2), options);
  ASSERT_TRUE(first.errors.empty());
  core::StreamingOptions resume_options = options;
  resume_options.resume = true;
  const auto second =
      core::StreamingExperiment::Run(GoldenConfig(2), resume_options);
  EXPECT_EQ(second.labs_resumed, first.labs.size());
  ExpectRunIdentical(second);
}

TEST(StreamingDeterminismTest, SpillStatsAccountForEveryBlockAndCompress) {
  const std::string dir = ::testing::TempDir() + "/labmon_spill_stats";
  std::filesystem::remove_all(dir);
  core::StreamingOptions options;
  options.spill_dir = dir;
  options.block_samples = 4096;
  const auto streamed =
      core::StreamingExperiment::Run(GoldenConfig(2), options);
  ASSERT_TRUE(streamed.errors.empty());
  const core::SpillCompressionStats& spill = streamed.spill;
  EXPECT_EQ(spill.codec, trace::SpillCodecName(trace::kDefaultSpillCodec));
  EXPECT_EQ(spill.segments, streamed.labs.size());
  // Every sample is encoded exactly once by collection; a fresh run merges
  // the blocks it staged and never reads its own segments back.
  EXPECT_EQ(spill.samples_encoded, streamed.samples);
  EXPECT_EQ(spill.samples_decoded, 0u);
  EXPECT_EQ(spill.blocks_decoded, 0u);
  EXPECT_GT(spill.payload_bytes_encoded, 0u);
  EXPECT_GE(spill.segment_bytes, spill.payload_bytes_encoded);
  // Fleet-like streams compress ≥3× under LMSG2.
  EXPECT_GT(spill.CompressionRatio(), 3.0);

  // A resumed run decodes exactly its resumed labs' samples and blocks:
  // together with the re-simulated labs' encoding they cover the stream.
  std::filesystem::remove(dir + "/lab0000.ck");
  std::filesystem::remove(dir + "/lab0001.ck");
  core::StreamingOptions resume_options = options;
  resume_options.resume = true;
  const auto resumed =
      core::StreamingExperiment::Run(GoldenConfig(2), resume_options);
  ASSERT_TRUE(resumed.errors.empty());
  ASSERT_EQ(resumed.labs_resumed, streamed.labs.size() - 2);
  const core::SpillCompressionStats& again = resumed.spill;
  EXPECT_EQ(again.segments, 2u);
  EXPECT_GT(again.samples_encoded, 0u);
  EXPECT_GT(again.samples_decoded, 0u);
  EXPECT_EQ(again.samples_encoded + again.samples_decoded, streamed.samples);
  EXPECT_EQ(again.blocks_encoded + again.blocks_decoded,
            spill.blocks_encoded);
}

TEST(StreamingDeterminismTest, AnomalyDetectorObservesWholeStream) {
  core::StreamingOptions options;
  options.anomaly_threshold = 4.0;
  const auto streamed =
      core::StreamingExperiment::Run(GoldenConfig(4), options);
  ASSERT_TRUE(streamed.errors.empty());
  // Every merged sample is observed once, plus one observation per
  // derived interval (strictly fewer than samples).
  EXPECT_GE(streamed.anomaly_observations, streamed.samples);
  EXPECT_LT(streamed.anomaly_observations, 2 * streamed.samples);
  // Determinism must not depend on the detector being attached.
  EXPECT_EQ(streamed.stream_hash, MaterialisedHash());
}

TEST(StreamingDeterminismTest, FaultedRunMatchesMaterialisedEngine) {
  // Under an active fault scenario the output differs from the clean
  // golden, but the streamed run must still agree bit-for-bit with the
  // materialised engine on the same faulted config, at any shard count.
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
  EXPECT_GT(streamed.run_stats.faults_injected, 0u);

  // Both engines assemble the campaign totals from the same per-lab
  // tally, so they must agree on every field.
  for (const int shards : {1, 3}) {
    SCOPED_TRACE("materialised shards=" + std::to_string(shards));
    core::ExperimentConfig materialised_config = config;
    materialised_config.shards = shards;
    const auto materialised = core::Experiment::Run(materialised_config);
    EXPECT_EQ(streamed.samples, materialised.trace.size());
    EXPECT_EQ(streamed.stream_hash, StoreHash(materialised.trace));
    ExpectTotalsIdentical(materialised, streamed);
    ExpectAnalysisIdentical(streamed.analysis, FoldMaterialised(materialised));
  }
}

TEST(StreamingDeterminismTest, FailingLabAbortsWithoutDeadlock) {
  // Sabotage one lab's segment path with a directory so SegmentWriter::Open
  // fails inside the first window. The run must drain the pipeline, cancel
  // the rings and return with errors — parked stages must not deadlock
  // (the test would time out if they did). A tiny ring maximises the
  // chance other producers are parked on it when the error fires.
  const std::string dir = ::testing::TempDir() + "/labmon_stream_fail";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir + "/lab0000.lmsg");
  core::StreamingOptions options;
  options.spill_dir = dir;
  options.block_samples = 256;
  options.ring_capacity = 1;
  const auto streamed =
      core::StreamingExperiment::Run(GoldenConfig(4), options);
  ASSERT_FALSE(streamed.errors.empty());
  EXPECT_EQ(streamed.samples, 0u);
}

}  // namespace
}  // namespace labmon
