// obs::prof behaviour pins:
//  * exact per-(shard, phase) aggregates, self vs inclusive semantics
//  * shard attribution via ShardScope (incl. nesting and restoration)
//  * ring overflow drops oldest records and counts the drops
//  * allocation accounting charges bytes to the allocating phase only
//  * profiling never changes experiment output (trace hash on == off)
//  * named Spans: timeline-only records (name, sim range, nesting depth,
//    drop-oldest ring) that leave the per-phase aggregates untouched
//
// The profiler is process-global, so every test Enables with a fresh
// Reset and Disables on exit; tests run serially within gtest by default.
#include "labmon/obs/prof.hpp"

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "labmon/core/experiment.hpp"
#include "labmon/trace/binary_io.hpp"

namespace labmon::obs::prof {
namespace {

class ProfTest : public ::testing::Test {
 protected:
  void TearDown() override {
    Disable();
    Reset();
  }
};

const PhaseAgg* FindRow(const Report& report, std::uint32_t shard,
                        Phase phase) {
  for (const PhaseAgg& row : report.rows) {
    if (row.shard == shard && row.phase == phase) return &row;
  }
  return nullptr;
}

void SpinFor(std::chrono::microseconds duration) {
  const auto until = std::chrono::steady_clock::now() + duration;
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST_F(ProfTest, DisabledScopesRecordNothing) {
  Reset();
  {
    PhaseScope scope(Phase::kSimulate);
    EXPECT_FALSE(scope.active());
  }
  const Report report = Drain();
  EXPECT_TRUE(report.rows.empty());
  EXPECT_TRUE(report.records.empty());
}

TEST_F(ProfTest, AggregatesCountEveryScopeExactly) {
  Enable();
  Reset();
  constexpr int kScopes = 10000;
  for (int i = 0; i < kScopes; ++i) {
    PhaseScope scope(Phase::kProbe);
  }
  const Report report = Drain();
  const PhaseAgg* row = FindRow(report, kNoShard, Phase::kProbe);
  ASSERT_NE(row, nullptr);
  // Aggregates are exact even though the ring (capacity 8192) dropped.
  EXPECT_EQ(row->count, static_cast<std::uint64_t>(kScopes));
  EXPECT_GT(report.dropped_records, 0u);
  EXPECT_EQ(report.records.size(), Options{}.ring_capacity);
}

TEST_F(ProfTest, SampledScopesEstimateTheFullPopulation) {
  Options options;
  options.hot_sample_period = 8;
  Enable(options);
  Reset();
  constexpr int kScopes = 4000;
  for (int i = 0; i < kScopes; ++i) {
    SampledPhaseScope scope(Phase::kProbe);
  }
  const Report report = Drain();
  const PhaseAgg* row = FindRow(report, kNoShard, Phase::kProbe);
  ASSERT_NE(row, nullptr);
  // 1-in-8 sampling, each sample weighted by 8: the count estimate is
  // exact up to one period (the tail that has not yet hit a sample tick).
  EXPECT_EQ(row->count % options.hot_sample_period, 0u);
  EXPECT_GE(row->count, static_cast<std::uint64_t>(kScopes) -
                            options.hot_sample_period);
  EXPECT_LE(row->count, static_cast<std::uint64_t>(kScopes) +
                            options.hot_sample_period);
}

// Regression pin: hot scopes of different phases strictly alternate on a
// thread in the real pipeline (advance, probe, advance, probe, ...). A
// single shared tick counter mod period would phase-lock onto one stream
// and never sample the other; ticks must be kept per phase.
TEST_F(ProfTest, AlternatingHotPhasesBothGetSampled) {
  Options options;
  options.hot_sample_period = 8;
  Enable(options);
  Reset();
  for (int i = 0; i < 1000; ++i) {
    { SampledPhaseScope scope(Phase::kSimulate); }
    { SampledPhaseScope scope(Phase::kProbe); }
  }
  const Report report = Drain();
  const PhaseAgg* simulate = FindRow(report, kNoShard, Phase::kSimulate);
  const PhaseAgg* probe = FindRow(report, kNoShard, Phase::kProbe);
  ASSERT_NE(simulate, nullptr);
  ASSERT_NE(probe, nullptr);
  EXPECT_GE(simulate->count, 900u);
  EXPECT_GE(probe->count, 900u);
}

TEST_F(ProfTest, RingOverflowDropsOldestRecords) {
  Options options;
  options.ring_capacity = 16;
  Enable(options);
  Reset();
  for (int i = 0; i < 40; ++i) {
    PhaseScope scope(i % 2 == 0 ? Phase::kSimulate : Phase::kProbe);
  }
  const Report report = Drain();
  EXPECT_EQ(report.records.size(), 16u);
  EXPECT_EQ(report.dropped_records, 24u);
  // Drop-oldest: retained records are the latest ones, in start order.
  for (std::size_t i = 1; i < report.records.size(); ++i) {
    EXPECT_GE(report.records[i].start_ns, report.records[i - 1].start_ns);
  }
  // The aggregates still saw all 40.
  const PhaseAgg* sim = FindRow(report, kNoShard, Phase::kSimulate);
  const PhaseAgg* probe = FindRow(report, kNoShard, Phase::kProbe);
  ASSERT_NE(sim, nullptr);
  ASSERT_NE(probe, nullptr);
  EXPECT_EQ(sim->count + probe->count, 40u);
}

TEST_F(ProfTest, NestedScopesSplitSelfAndInclusiveTime) {
  Enable();
  Reset();
  {
    PhaseScope outer(Phase::kCollect);
    SpinFor(std::chrono::microseconds(2000));
    {
      PhaseScope inner(Phase::kMerge);
      SpinFor(std::chrono::microseconds(2000));
    }
    SpinFor(std::chrono::microseconds(1000));
  }
  const Report report = Drain();
  const PhaseAgg* outer = FindRow(report, kNoShard, Phase::kCollect);
  const PhaseAgg* inner = FindRow(report, kNoShard, Phase::kMerge);
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // Inclusive covers the child; self excludes it.
  EXPECT_GE(outer->incl_ns, outer->self_ns + inner->incl_ns);
  EXPECT_GE(inner->incl_ns, 2000u * 1000u / 2);  // at least ~1 ms of the 2
  EXPECT_LT(outer->self_ns, outer->incl_ns);
  // Self times sum to the real wall time: outer self + inner incl ~= total.
  EXPECT_NEAR(static_cast<double>(outer->self_ns + inner->incl_ns),
              static_cast<double>(outer->incl_ns),
              0.2 * static_cast<double>(outer->incl_ns));
}

TEST_F(ProfTest, ShardScopeAttributesAndRestores) {
  Enable();
  Reset();
  {
    ShardScope shard3(3);
    PhaseScope in_shard(Phase::kSimulate);
  }
  {
    ShardScope shard5(5);
    {
      ShardScope shard7(7);  // nested override
      PhaseScope inner(Phase::kProbe);
    }
    PhaseScope restored(Phase::kProbe);  // back to shard 5
  }
  {
    PhaseScope no_shard(Phase::kMerge);  // outside any ShardScope
  }
  const Report report = Drain();
  EXPECT_NE(FindRow(report, 3, Phase::kSimulate), nullptr);
  EXPECT_NE(FindRow(report, 7, Phase::kProbe), nullptr);
  EXPECT_NE(FindRow(report, 5, Phase::kProbe), nullptr);
  EXPECT_NE(FindRow(report, kNoShard, Phase::kMerge), nullptr);
  EXPECT_EQ(FindRow(report, 3, Phase::kProbe), nullptr);
}

TEST_F(ProfTest, PerThreadLogsMergeIntoOneReport) {
  Enable();
  Reset();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      ShardScope shard(static_cast<std::uint32_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        PhaseScope scope(Phase::kCollect);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const Report report = Drain();
  std::uint64_t total = 0;
  for (int t = 0; t < kThreads; ++t) {
    const PhaseAgg* row =
        FindRow(report, static_cast<std::uint32_t>(t), Phase::kCollect);
    ASSERT_NE(row, nullptr) << "shard " << t;
    EXPECT_EQ(row->count, static_cast<std::uint64_t>(kPerThread));
    total += row->count;
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST_F(ProfTest, AllocationAccountingChargesTheAllocatingPhase) {
  Enable();
  Reset();
  {
    PhaseScope outer(Phase::kCollect);
    {
      PhaseScope inner(Phase::kMerge);
      auto big = std::make_unique<char[]>(1 << 20);
      big[0] = 1;
    }
  }
  const Report report = Drain();
  const PhaseAgg* inner = FindRow(report, kNoShard, Phase::kMerge);
  const PhaseAgg* outer = FindRow(report, kNoShard, Phase::kCollect);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(outer, nullptr);
  // The 1 MiB belongs to the inner phase (self semantics), not the outer.
  EXPECT_GE(inner->alloc_bytes, 1u << 20);
  EXPECT_LT(outer->alloc_bytes, 1u << 20);
  EXPECT_GE(inner->alloc_count, 1u);
}

TEST_F(ProfTest, ThreadAllocCountersAreMonotonic) {
  const AllocCounters before = ThreadAllocCounters();
  auto block = std::make_unique<char[]>(4096);
  block[0] = 1;
  const AllocCounters after = ThreadAllocCounters();
  EXPECT_GE(after.bytes, before.bytes + 4096);
  EXPECT_GT(after.count, before.count);
}

TEST_F(ProfTest, DisabledSpanRecordsNothing) {
  Reset();
  {
    Span span("quiet");
    EXPECT_FALSE(span.active());
    span.SetSimRange(0, 10);  // harmless while inactive
  }
  EXPECT_TRUE(Drain().records.empty());
}

TEST_F(ProfTest, SpanRecordsNameAndSimRange) {
  Enable();
  Reset();
  {
    Span span("coordinator.iteration");
    EXPECT_TRUE(span.active());
    span.SetSimRange(900, 1800);
  }
  const Report report = Drain();
  ASSERT_EQ(report.records.size(), 1u);
  const Record& record = report.records[0];
  EXPECT_STREQ(record.name, "coordinator.iteration");
  EXPECT_EQ(record.sim_start, 900);
  EXPECT_EQ(record.sim_end, 1800);
  EXPECT_EQ(record.shard, kNoShard);
  EXPECT_EQ(record.depth, 0u);
}

TEST_F(ProfTest, SpanSimRangeDefaultsToUnset) {
  Enable();
  Reset();
  { Span span("no-sim"); }
  const Report report = Drain();
  ASSERT_EQ(report.records.size(), 1u);
  EXPECT_EQ(report.records[0].sim_start, -1);
  EXPECT_EQ(report.records[0].sim_end, -1);
}

TEST_F(ProfTest, NestedSpansRecordDepthAndCompleteInnerFirst) {
  Enable();
  Reset();
  {
    Span outer("outer");
    {
      Span middle("middle");
      { Span inner("inner"); }
    }
  }
  { Span again("again"); }  // a sibling after the nest is back at depth 0
  const Report report = Drain();
  ASSERT_EQ(report.records.size(), 4u);
  // Records are in start order: outer, middle, inner, again.
  const Record& outer = report.records[0];
  const Record& middle = report.records[1];
  const Record& inner = report.records[2];
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_EQ(outer.depth, 0u);
  EXPECT_STREQ(middle.name, "middle");
  EXPECT_EQ(middle.depth, 1u);
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_EQ(inner.depth, 2u);
  EXPECT_STREQ(report.records[3].name, "again");
  EXPECT_EQ(report.records[3].depth, 0u);
  // Inner scopes complete first: each ends no later than its parent.
  EXPECT_LE(inner.start_ns + inner.dur_ns, middle.start_ns + middle.dur_ns);
  EXPECT_LE(middle.start_ns + middle.dur_ns, outer.start_ns + outer.dur_ns);
}

TEST_F(ProfTest, SpanRingKeepsNewestAndCountsDrops) {
  Options options;
  options.ring_capacity = 4;
  Enable(options);
  Reset();
  static constexpr const char* kNames[] = {
      "span-0", "span-1", "span-2", "span-3", "span-4",
      "span-5", "span-6", "span-7", "span-8", "span-9"};
  for (const char* name : kNames) {
    Span span(name);
  }
  const Report report = Drain();
  ASSERT_EQ(report.records.size(), 4u);
  EXPECT_EQ(report.dropped_records, 6u);
  EXPECT_STREQ(report.records.front().name, "span-6");
  EXPECT_STREQ(report.records.back().name, "span-9");
}

TEST_F(ProfTest, SpanEnableStateIsCapturedAtConstruction) {
  Enable();
  Reset();
  {
    Span span("captured");
    Disable();  // a mid-span disable must not lose the record
  }
  {
    Span late("late");  // constructed while disabled: records nothing
    Enable();
  }
  const Report report = Drain();
  ASSERT_EQ(report.records.size(), 1u);
  EXPECT_STREQ(report.records[0].name, "captured");
}

// Spans are timeline-only: opened around and inside phase scopes they
// leave every aggregate row as it was (a Span inside a PhaseScope is not a
// child, so the scope's self time still covers it).
TEST_F(ProfTest, SpansLeavePhaseAggregatesUnchanged) {
  const auto run = [](bool with_spans) {
    Reset();
    {
      std::optional<Span> around;  // in place: a heap Span would allocate
      if (with_spans) around.emplace("around");
      ShardScope shard(1);
      PhaseScope outer(Phase::kCollect);
      {
        PhaseScope inner(Phase::kMerge);
        std::optional<Span> inside;
        if (with_spans) inside.emplace("inside");
        SpinFor(std::chrono::microseconds(200));
      }
      { SampledPhaseScope hot(Phase::kProbe); }
    }
    return Drain();
  };
  Options options;
  options.hot_sample_period = 1;
  Enable(options);
  // Warm the thread log so no first-use allocation lands in either run.
  (void)run(false);
  const Report plain = run(false);
  const Report spanned = run(true);
  ASSERT_EQ(plain.rows.size(), spanned.rows.size());
  for (std::size_t i = 0; i < plain.rows.size(); ++i) {
    const PhaseAgg& a = plain.rows[i];
    const PhaseAgg& b = spanned.rows[i];
    EXPECT_EQ(a.shard, b.shard);
    EXPECT_EQ(a.phase, b.phase);
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.alloc_bytes, b.alloc_bytes);
    EXPECT_EQ(a.alloc_count, b.alloc_count);
  }
  // The spans are on the timeline, and nowhere else.
  EXPECT_EQ(spanned.records.size(), plain.records.size() + 2);
  const PhaseAgg* merge = FindRow(spanned, 1, Phase::kMerge);
  ASSERT_NE(merge, nullptr);
  EXPECT_EQ(merge->self_ns, merge->incl_ns);
}

TEST_F(ProfTest, ReportJsonIsWellFormedAndComplete) {
  Enable();
  Reset();
  {
    PhaseScope scope(Phase::kAnalysis);
  }
  const Report report = Drain();
  const std::string json = ReportJson(report);
  EXPECT_NE(json.find("\"phases\""), std::string::npos);
  EXPECT_NE(json.find("\"analysis\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_records\""), std::string::npos);
}

// The headline invariant: profiling must never perturb simulation output.
TEST_F(ProfTest, TraceIsBitIdenticalWithProfilingOnAndOff) {
  core::ExperimentConfig config;
  config.campus.days = 1;
  config.campus.seed = 20050201;
  config.shards = 2;

  Disable();
  const auto off = core::Experiment::Run(config);
  const std::string off_bytes = trace::SerializeTrace(off.trace);

  Enable();
  Reset();
  const auto on = core::Experiment::Run(config);
  const std::string on_bytes = trace::SerializeTrace(on.trace);
  const Report report = Drain();

  EXPECT_EQ(off_bytes, on_bytes)
      << "profiling changed the collected trace";
  // And the profiled run actually profiled: simulate/probe/merge all saw
  // work, attributed to both shards.
  EXPECT_GT(report.PhaseSelfSeconds(Phase::kSimulate), 0.0);
  EXPECT_GT(report.PhaseSelfSeconds(Phase::kProbe), 0.0);
  EXPECT_GT(report.PhaseSelfSeconds(Phase::kMerge), 0.0);
  EXPECT_NE(FindRow(report, 0, Phase::kProbe), nullptr);
  EXPECT_NE(FindRow(report, 1, Phase::kProbe), nullptr);
}

}  // namespace
}  // namespace labmon::obs::prof
