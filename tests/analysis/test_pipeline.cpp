// AnalysisPipeline mechanics on a toy pass: every machine visited exactly
// once, chunk states merged in deterministic order, results independent of
// the worker count, run stats shaped correctly.
#include "labmon/analysis/pipeline.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <vector>

#include "labmon/trace/derived_trace.hpp"
#include "labmon/trace/trace_store.hpp"

namespace labmon::analysis {
namespace {

trace::TraceStore MakeTestTrace(std::size_t machines,
                                std::size_t samples_per_machine) {
  trace::TraceStore store(machines);
  for (std::size_t s = 0; s < samples_per_machine; ++s) {
    for (std::size_t m = 0; m < machines; ++m) {
      trace::SampleRecord r;
      r.machine = static_cast<std::uint32_t>(m);
      r.iteration = static_cast<std::uint32_t>(s);
      r.t = static_cast<std::int64_t>(900 * (s + 1));
      r.boot_time = 0;
      r.uptime_s = r.t;
      r.cpu_idle_s = static_cast<double>(r.t) * 0.9;
      store.Append(r);
    }
  }
  return store;
}

/// Counts samples per machine and records how often each hook ran.
class CountingPass final : public AnalysisPass {
 public:
  struct St final : State {
    std::uint64_t samples = 0;
    std::vector<std::size_t> machines_seen;
  };

  [[nodiscard]] std::string_view name() const override { return "counting"; }

  [[nodiscard]] std::unique_ptr<State> MakeState(
      const PassContext&) const override {
    ++states_made;
    return std::make_unique<St>();
  }

  void AccumulateMachine(const PassContext& ctx, std::size_t machine,
                         State& state) const override {
    auto& st = static_cast<St&>(state);
    st.samples += ctx.trace.MachineSamples(machine).size();
    st.machines_seen.push_back(machine);
  }

  void MergeState(State& into, State& from) const override {
    auto& a = static_cast<St&>(into);
    auto& b = static_cast<St&>(from);
    a.samples += b.samples;
    a.machines_seen.insert(a.machines_seen.end(), b.machines_seen.begin(),
                           b.machines_seen.end());
  }

  void Finalize(const PassContext&, State& merged) override {
    auto& st = static_cast<St&>(merged);
    total_samples = st.samples;
    merged_machines = st.machines_seen;
  }

  // Bumped from the pipeline's worker threads.
  mutable std::atomic<int> states_made{0};
  std::uint64_t total_samples = 0;
  std::vector<std::size_t> merged_machines;
};

TEST(AnalysisPipelineTest, VisitsEveryMachineExactlyOnce) {
  const auto store = MakeTestTrace(20, 7);
  const trace::DerivedTrace derived(store);
  AnalysisPipeline pipeline(PipelineOptions{1, 8, nullptr});
  auto& pass = pipeline.Emplace<CountingPass>();
  const auto stats = pipeline.Run(derived);

  EXPECT_EQ(pass.total_samples, store.size());
  // Merge happens in ascending chunk order and machines ascend within a
  // chunk, so the merged visit order is 0..N-1.
  std::vector<std::size_t> expected(20);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(pass.merged_machines, expected);
  EXPECT_EQ(stats.machines, 20u);
  EXPECT_EQ(stats.chunks, 3u);  // ceil(20 / 8)
}

TEST(AnalysisPipelineTest, MakesOneStatePerChunkPlusMergeTarget) {
  const auto store = MakeTestTrace(17, 2);
  const trace::DerivedTrace derived(store);
  AnalysisPipeline pipeline(PipelineOptions{1, 4, nullptr});
  auto& pass = pipeline.Emplace<CountingPass>();
  pipeline.Run(derived);
  // ceil(17/4) = 5 chunk states + 1 fresh state merged into.
  EXPECT_EQ(pass.states_made.load(), 6);
}

TEST(AnalysisPipelineTest, ResultIndependentOfWorkerCount) {
  const auto store = MakeTestTrace(30, 5);
  const trace::DerivedTrace derived(store);

  AnalysisPipeline serial(PipelineOptions{1, 8, nullptr});
  auto& pass1 = serial.Emplace<CountingPass>();
  serial.Run(derived);

  AnalysisPipeline parallel(PipelineOptions{4, 8, nullptr});
  auto& pass4 = parallel.Emplace<CountingPass>();
  parallel.Run(derived);

  EXPECT_EQ(pass1.total_samples, pass4.total_samples);
  // The fixed chunk grid + ordered merge make even the visit order equal.
  EXPECT_EQ(pass1.merged_machines, pass4.merged_machines);
}

TEST(AnalysisPipelineTest, RunStatsCoverEveryPass) {
  const auto store = MakeTestTrace(10, 3);
  const trace::DerivedTrace derived(store);
  AnalysisPipeline pipeline;
  pipeline.Emplace<CountingPass>();
  pipeline.Emplace<CountingPass>();
  const auto stats = pipeline.Run(derived);

  EXPECT_EQ(pipeline.pass_count(), 2u);
  ASSERT_EQ(stats.passes.size(), 2u);
  for (const auto& pass : stats.passes) {
    EXPECT_EQ(pass.name, "counting");
    EXPECT_GE(pass.accumulate_seconds, 0.0);
    EXPECT_GE(pass.finalize_seconds, 0.0);
  }
  EXPECT_GE(stats.sweep_seconds, 0.0);
  EXPECT_GE(stats.merge_seconds, 0.0);
  EXPECT_GE(stats.workers, 1u);
}

TEST(AnalysisPipelineTest, EmptyTraceRunsCleanly) {
  const trace::TraceStore store(0);
  const trace::DerivedTrace derived(store);
  AnalysisPipeline pipeline;
  auto& pass = pipeline.Emplace<CountingPass>();
  const auto stats = pipeline.Run(derived);
  EXPECT_EQ(stats.machines, 0u);
  EXPECT_EQ(pass.total_samples, 0u);
  EXPECT_TRUE(pass.merged_machines.empty());
}

}  // namespace
}  // namespace labmon::analysis
