// Streaming-engine determinism suite — the streamed campaign's contract:
// collection through sealed blocks (in memory or spilled to disk),
// StreamMergeBlocks and the incremental analysis fold must reproduce the
// materialised engine bit-for-bit, for any worker count and block size,
// and a campaign killed mid-run must resume from its per-lab checkpoints
// to the exact same result.
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

using core::testing::ExpectRunIdentical;
using core::testing::GoldenConfig;
using core::testing::MaterialisedHash;

TEST(StreamingDeterminismTest, InMemoryMatchesMaterialisedEngine) {
  core::StreamingOptions options;
  const auto streamed =
      core::StreamingExperiment::Run(GoldenConfig(1), options);
  ExpectRunIdentical(streamed);
}

TEST(StreamingDeterminismTest, WorkerCountAndBlockSizeAreInvisible) {
  core::StreamingOptions options;
  options.block_samples = 4096;  // force many sealed blocks
  const auto streamed =
      core::StreamingExperiment::Run(GoldenConfig(8), options);
  ExpectRunIdentical(streamed);
}

TEST(StreamingDeterminismTest, SpilledRunMatchesAndCheckpoints) {
  const std::string dir = ::testing::TempDir() + "/labmon_stream_spill";
  std::filesystem::remove_all(dir);
  core::StreamingOptions options;
  options.spill_dir = dir;
  options.block_samples = 4096;
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

  core::StreamingOptions resume_options = options;
  resume_options.resume = true;
  const auto resumed =
      core::StreamingExperiment::Run(GoldenConfig(2), resume_options);
  EXPECT_EQ(resumed.labs_resumed, lab_count - 2);
  ExpectRunIdentical(resumed);
  EXPECT_EQ(resumed.stream_hash, first.stream_hash);
}

TEST(StreamingDeterminismTest, CrossCodecResumeIsBitIdenticalBothWays) {
  for (const auto& [first_codec, second_codec] :
       {std::pair{trace::SpillCodecId::kLmsg1, trace::SpillCodecId::kLmsg2},
        std::pair{trace::SpillCodecId::kLmsg2,
                  trace::SpillCodecId::kLmsg1}}) {
    const std::string dir = ::testing::TempDir() +
                            "/labmon_stream_cross_codec_" +
                            std::string(trace::SpillCodecName(first_codec));
    std::filesystem::remove_all(dir);
    core::StreamingOptions options;
    options.spill_dir = dir;
    options.block_samples = 4096;
    options.spill_codec = first_codec;
    const auto first =
        core::StreamingExperiment::Run(GoldenConfig(2), options);
    ASSERT_TRUE(first.errors.empty());
    const std::size_t lab_count = first.labs.size();
    ASSERT_GE(lab_count, 2u);

    // Drop two labs' checkpoints and resume under the other codec: the
    // re-simulated labs spill in the new format while the survivors
    // stream from segments written in the old one — the merged stream
    // must not notice.
    std::filesystem::remove(dir + "/lab0000.ck");
    std::filesystem::remove(dir + "/lab0001.ck");
    core::StreamingOptions resume_options = options;
    resume_options.resume = true;
    resume_options.spill_codec = second_codec;
    const auto resumed =
        core::StreamingExperiment::Run(GoldenConfig(2), resume_options);
    EXPECT_EQ(resumed.labs_resumed, lab_count - 2);
    ExpectRunIdentical(resumed);
    EXPECT_EQ(resumed.stream_hash, first.stream_hash);
    EXPECT_EQ(resumed.spill.codec, trace::SpillCodecName(second_codec));
  }
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
  // Every sample is encoded exactly once by collection and decoded exactly
  // once by the merge re-stream.
  EXPECT_EQ(spill.samples_encoded, streamed.samples);
  EXPECT_EQ(spill.samples_decoded, streamed.samples);
  EXPECT_EQ(spill.blocks_encoded, spill.blocks_decoded);
  EXPECT_GT(spill.payload_bytes_encoded, 0u);
  EXPECT_GE(spill.segment_bytes, spill.payload_bytes_encoded);
  // The tentpole claim: fleet-like streams compress ≥3× under LMSG2.
  EXPECT_GT(spill.CompressionRatio(), 3.0);
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

}  // namespace
}  // namespace labmon
