// PipelinedExperiment alias suite. The benchmark driver (labbench/) calls
// core::PipelinedExperiment::Run for its long-horizon streaming workload,
// so the old name must stay a plain alias of the one streaming engine and
// keep working with exactly the options that workload passes: LMSG2 spill,
// one merge-sort worker, two shards, then a resume of the same spill dir.
// The engine's own contract (every shard/block/ring corner, cross-codec
// resume, fault and failure paths) is pinned in
// test_streaming_determinism.
#include <filesystem>
#include <string>
#include <type_traits>

#include <gtest/gtest.h>

#include "engine_golden.hpp"
#include "labmon/core/streaming.hpp"

namespace labmon {
namespace {

using core::testing::ExpectRunIdentical;
using core::testing::GoldenConfig;

static_assert(
    std::is_same_v<core::PipelinedExperiment, core::StreamingExperiment>,
    "PipelinedExperiment must name the one streaming engine");

core::StreamingOptions LongHorizonOptions(const std::string& spill_dir) {
  core::StreamingOptions options;
  options.spill_dir = spill_dir;
  options.spill_codec = trace::SpillCodecId::kLmsg2;
  options.merge_sort_workers = 1;
  return options;
}

TEST(PipelinedDeterminismTest, AliasRunMatchesMaterialisedEngine) {
  const std::string dir = ::testing::TempDir() + "/labmon_pipe_alias";
  std::filesystem::remove_all(dir);
  const core::StreamingOptions options = LongHorizonOptions(dir);
  const auto piped = core::PipelinedExperiment::Run(GoldenConfig(2), options);
  ASSERT_TRUE(piped.errors.empty());
  ExpectRunIdentical(piped);
  EXPECT_EQ(piped.labs_resumed, 0u);
  EXPECT_GT(piped.pipeline.staged_blocks, 0u);
  EXPECT_EQ(piped.pipeline.ring_capacity, options.ring_capacity);
  EXPECT_EQ(piped.spill.codec, "lmsg2");
  EXPECT_EQ(piped.spill.segments, piped.labs.size());
}

TEST(PipelinedDeterminismTest, AliasResumesItsOwnSpillDir) {
  const std::string dir = ::testing::TempDir() + "/labmon_pipe_alias_resume";
  std::filesystem::remove_all(dir);
  core::StreamingOptions options = LongHorizonOptions(dir);
  const auto first = core::PipelinedExperiment::Run(GoldenConfig(2), options);
  ASSERT_TRUE(first.errors.empty());
  options.resume = true;
  const auto second = core::PipelinedExperiment::Run(GoldenConfig(2), options);
  EXPECT_EQ(second.labs_resumed, first.labs.size());
  ExpectRunIdentical(second);
  EXPECT_EQ(second.stream_hash, first.stream_hash);
}

}  // namespace
}  // namespace labmon
