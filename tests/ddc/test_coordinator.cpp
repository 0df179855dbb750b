#include "labmon/ddc/coordinator.hpp"

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "labmon/ddc/w32_probe.hpp"
#include "labmon/obs/prof.hpp"
#include "labmon/winsim/fleet.hpp"

namespace labmon::ddc {
namespace {

winsim::Fleet SmallFleet(std::size_t machines = 5) {
  std::vector<winsim::LabSpec> labs{{
      "T01", machines, "Pentium 4", 2.4, 512, 74.5, 30.5, 33.1}};
  util::Rng rng(1);
  return winsim::Fleet(labs, winsim::PriorLifeModel{}, rng);
}

/// Sink recording everything it sees.
class RecordingSink : public SampleSink {
 public:
  SampleVerdict OnSample(const CollectedSample& sample) override {
    samples.push_back(sample);
    return verdicts.empty() ? SampleVerdict::kAccepted
                            : verdicts[(samples.size() - 1) % verdicts.size()];
  }
  void OnIterationEnd(std::uint64_t iteration, util::SimTime start,
                      util::SimTime end) override {
    iterations.emplace_back(start, end);
    (void)iteration;
  }
  std::vector<CollectedSample> samples;
  std::vector<std::pair<util::SimTime, util::SimTime>> iterations;
  /// Scripted verdicts, cycled per sample; empty = accept everything.
  std::vector<SampleVerdict> verdicts;
};

TEST(CoordinatorTest, ProbesEveryMachineEveryIteration) {
  auto fleet = SmallFleet(5);
  for (std::size_t i = 0; i < fleet.size(); ++i) fleet.machine(i).Boot(0);
  RecordingSink sink;
  W32Probe probe;
  CoordinatorConfig config;
  config.exec_policy.transient_failure_prob = 0.0;
  Coordinator coordinator(fleet, probe, config, sink);
  const auto stats = coordinator.Run(0, 4 * config.period);
  EXPECT_EQ(stats.iterations, 4u);
  EXPECT_EQ(stats.attempts, 4u * 5u);
  EXPECT_EQ(stats.successes, stats.attempts);
  EXPECT_EQ(sink.samples.size(), stats.attempts);
  EXPECT_DOUBLE_EQ(stats.ResponseRate(), 1.0);
}

TEST(CoordinatorTest, OfflineMachinesTimeOutButIterationContinues) {
  auto fleet = SmallFleet(6);
  fleet.machine(0).Boot(0);
  fleet.machine(3).Boot(0);
  RecordingSink sink;
  W32Probe probe;
  CoordinatorConfig config;
  config.exec_policy.transient_failure_prob = 0.0;
  Coordinator coordinator(fleet, probe, config, sink);
  const auto stats = coordinator.Run(0, config.period);
  EXPECT_EQ(stats.iterations, 1u);
  EXPECT_EQ(stats.successes, 2u);
  EXPECT_EQ(stats.timeouts, 4u);
}

TEST(CoordinatorTest, SequentialTimeAdvancesWithLatencies) {
  auto fleet = SmallFleet(4);
  RecordingSink sink;  // all machines off -> every attempt times out
  W32Probe probe;
  CoordinatorConfig config;
  Coordinator coordinator(fleet, probe, config, sink);
  (void)coordinator.Run(0, config.period);
  ASSERT_EQ(sink.samples.size(), 4u);
  for (std::size_t i = 1; i < sink.samples.size(); ++i) {
    EXPECT_GT(sink.samples[i].attempt_time, sink.samples[i - 1].attempt_time)
        << "sequential attempts must be spaced by the previous latency";
  }
}

TEST(CoordinatorTest, OverrunDelaysNextIteration) {
  // 30 offline machines at >= 3 s each overrun a 60-second period, so the
  // number of iterations is below span/period — the paper's 6883 < 7392.
  auto fleet = SmallFleet(30);
  RecordingSink sink;
  W32Probe probe;
  CoordinatorConfig config;
  config.period = 60;
  Coordinator coordinator(fleet, probe, config, sink);
  const auto stats = coordinator.Run(0, 3600);
  EXPECT_LT(stats.iterations, 3600u / 60u);
  EXPECT_GT(stats.max_iteration_s, 60.0);
  // Iterations never overlap.
  for (std::size_t i = 1; i < sink.iterations.size(); ++i) {
    EXPECT_GE(sink.iterations[i].first, sink.iterations[i - 1].second);
  }
}

TEST(CoordinatorTest, WindowedStepsMatchOneRun) {
  // Begin/StepUntil/Finish over any ascending window partition replays the
  // exact probe, retry and iteration sequence of one Run() call — the
  // streaming engine's lockstep windows rely on it.
  for (const bool aligned : {false, true}) {
    for (const util::SimTime window : {1, 60, 150, 1000}) {
      SCOPED_TRACE("aligned=" + std::to_string(aligned) +
                   " window=" + std::to_string(window));
      const auto collect = [&](bool windowed, RecordingSink& sink) {
        auto fleet = SmallFleet(30);
        for (std::size_t i = 0; i < fleet.size(); i += 2) {
          fleet.machine(i).Boot(0);
        }
        W32Probe probe;
        CoordinatorConfig config;
        config.period = 60;  // half the fleet offline overruns it
        config.aligned_schedule = aligned;
        config.exec_policy.transient_failure_prob = 0.05;
        config.retry.max_attempts = 3;
        Coordinator coordinator(fleet, probe, config, sink);
        if (!windowed) return coordinator.Run(0, 3600);
        coordinator.Begin(0);
        for (util::SimTime until = window; until < 3600; until += window) {
          coordinator.StepUntil(until);
        }
        coordinator.StepUntil(3600);
        return coordinator.Finish();
      };
      RecordingSink whole;
      RecordingSink stepped;
      const RunStats a = collect(false, whole);
      const RunStats b = collect(true, stepped);
      EXPECT_GT(a.retry_attempts, 0u);
      EXPECT_GT(a.timeouts, 0u);
      EXPECT_EQ(a.iterations, b.iterations);
      EXPECT_EQ(a.attempts, b.attempts);
      EXPECT_EQ(a.successes, b.successes);
      EXPECT_EQ(a.timeouts, b.timeouts);
      EXPECT_EQ(a.errors, b.errors);
      EXPECT_EQ(a.retry_attempts, b.retry_attempts);
      EXPECT_EQ(a.total_span_s, b.total_span_s);
      EXPECT_EQ(a.mean_iteration_s, b.mean_iteration_s);
      EXPECT_EQ(whole.iterations, stepped.iterations);
      ASSERT_EQ(whole.samples.size(), stepped.samples.size());
      for (std::size_t i = 0; i < whole.samples.size(); ++i) {
        const CollectedSample& x = whole.samples[i];
        const CollectedSample& y = stepped.samples[i];
        EXPECT_EQ(x.machine_index, y.machine_index);
        EXPECT_EQ(x.iteration, y.iteration);
        EXPECT_EQ(x.attempt_time, y.attempt_time);
        EXPECT_EQ(x.attempt_number, y.attempt_number);
        EXPECT_EQ(x.outcome.status, y.outcome.status);
      }
    }
  }
}

TEST(CoordinatorTest, FastIterationsKeepPeriodBoundary) {
  auto fleet = SmallFleet(2);
  fleet.machine(0).Boot(0);
  fleet.machine(1).Boot(0);
  RecordingSink sink;
  W32Probe probe;
  CoordinatorConfig config;
  config.exec_policy.transient_failure_prob = 0.0;
  Coordinator coordinator(fleet, probe, config, sink);
  (void)coordinator.Run(0, 4 * config.period);
  ASSERT_EQ(sink.iterations.size(), 4u);
  for (std::size_t i = 0; i < sink.iterations.size(); ++i) {
    EXPECT_EQ(sink.iterations[i].first,
              static_cast<util::SimTime>(i) * config.period);
  }
}

TEST(CoordinatorTest, AdvanceCallbackInvokedBeforeEveryProbe) {
  auto fleet = SmallFleet(3);
  for (std::size_t i = 0; i < fleet.size(); ++i) fleet.machine(i).Boot(0);
  RecordingSink sink;
  W32Probe probe;
  CoordinatorConfig config;
  std::vector<util::SimTime> advances;
  auto advance = [&](util::SimTime t) { advances.push_back(t); };
  Coordinator coordinator(fleet, probe, config, sink, advance);
  (void)coordinator.Run(0, config.period);
  ASSERT_EQ(advances.size(), 3u);
  EXPECT_TRUE(std::is_sorted(advances.begin(), advances.end()));
  for (std::size_t i = 0; i < advances.size(); ++i) {
    EXPECT_EQ(advances[i], sink.samples[i].attempt_time);
  }
}

TEST(CoordinatorTest, ParallelModeShortensIterations) {
  auto fleet_seq = SmallFleet(30);
  auto fleet_par = SmallFleet(30);
  RecordingSink sink_seq;
  RecordingSink sink_par;
  W32Probe probe;
  CoordinatorConfig seq;
  seq.period = 60;
  CoordinatorConfig par = seq;
  par.mode = CoordinatorConfig::Mode::kParallelSimulated;
  par.workers = 10;
  Coordinator a(fleet_seq, probe, seq, sink_seq);
  Coordinator b(fleet_par, probe, par, sink_par);
  const auto stats_seq = a.Run(0, 3600);
  const auto stats_par = b.Run(0, 3600);
  EXPECT_LT(stats_par.mean_iteration_s, stats_seq.mean_iteration_s / 3.0);
  EXPECT_GT(stats_par.iterations, stats_seq.iterations);
}

TEST(CoordinatorTest, ParallelModeStillProbesAllMachines) {
  auto fleet = SmallFleet(12);
  for (std::size_t i = 0; i < fleet.size(); ++i) fleet.machine(i).Boot(0);
  RecordingSink sink;
  W32Probe probe;
  CoordinatorConfig config;
  config.mode = CoordinatorConfig::Mode::kParallelSimulated;
  config.workers = 4;
  config.exec_policy.transient_failure_prob = 0.0;
  std::vector<util::SimTime> advances;
  auto advance = [&](util::SimTime t) { advances.push_back(t); };
  Coordinator coordinator(fleet, probe, config, sink, advance);
  const auto stats = coordinator.Run(0, config.period);
  EXPECT_EQ(stats.successes, 12u);
  EXPECT_TRUE(std::is_sorted(advances.begin(), advances.end()))
      << "co-simulation time must stay monotone in parallel mode";
  std::vector<bool> seen(12, false);
  for (const auto& s : sink.samples) seen[s.machine_index] = true;
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_TRUE(seen[i]) << "machine " << i;
  }
}

TEST(CoordinatorTest, SecondRunDoesNotAccumulateFirstRunsTallies) {
  auto fleet = SmallFleet(5);
  for (std::size_t i = 0; i < fleet.size(); ++i) fleet.machine(i).Boot(0);
  RecordingSink sink;
  W32Probe probe;
  CoordinatorConfig config;
  config.exec_policy.transient_failure_prob = 0.0;
  Coordinator coordinator(fleet, probe, config, sink);
  const auto first = coordinator.Run(0, 2 * config.period);
  EXPECT_EQ(first.attempts, 2u * 5u);
  const auto second =
      coordinator.Run(10 * config.period, 12 * config.period);
  EXPECT_EQ(second.iterations, 2u);
  EXPECT_EQ(second.attempts, 2u * 5u)
      << "tallies must reset between Run() calls";
  EXPECT_EQ(second.successes, 2u * 5u);
}

TEST(CoordinatorTest, MetricsRegistryCollectsPerMachineCounters) {
  auto fleet = SmallFleet(3);
  fleet.machine(0).Boot(0);
  fleet.machine(1).Boot(0);  // machine 2 stays off -> timeouts
  RecordingSink sink;
  W32Probe probe;
  obs::Registry registry;
  CoordinatorConfig config;
  config.exec_policy.transient_failure_prob = 0.0;
  config.metrics = &registry;
  Coordinator coordinator(fleet, probe, config, sink);
  const auto stats = coordinator.Run(0, 2 * config.period);

  std::uint64_t attempts = 0;
  std::uint64_t ok = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t iteration_observations = 0;
  bool saw_lab_label = false;
  for (const auto& family : registry.Snapshot()) {
    if (family.name == "labmon_ddc_probe_attempts_total") {
      for (const auto& point : family.counters) {
        attempts += point.value;
        for (const auto& [key, value] : point.labels) {
          if (key == "lab" && value == "T01") saw_lab_label = true;
        }
      }
    } else if (family.name == "labmon_ddc_probe_outcomes_total") {
      for (const auto& point : family.counters) {
        for (const auto& [key, value] : point.labels) {
          if (key != "outcome") continue;
          if (value == "ok") ok += point.value;
          if (value == "timeout") timeouts += point.value;
        }
      }
    } else if (family.name == "labmon_ddc_iteration_seconds") {
      for (const auto& point : family.histograms) {
        iteration_observations += point.count;
      }
    }
  }
  EXPECT_EQ(attempts, stats.attempts);
  EXPECT_EQ(ok, stats.successes);
  EXPECT_EQ(timeouts, stats.timeouts);
  EXPECT_EQ(iteration_observations, stats.iterations);
  EXPECT_TRUE(saw_lab_label);
}

TEST(CoordinatorTest, ProfilerRecordsIterationSpanAndProbes) {
  auto fleet = SmallFleet(2);
  for (std::size_t i = 0; i < fleet.size(); ++i) fleet.machine(i).Boot(0);
  RecordingSink sink;
  W32Probe probe;
  obs::prof::Options options;
  options.hot_sample_period = 1;  // time every probe
  obs::prof::Enable(options);
  obs::prof::Reset();
  CoordinatorConfig config;
  config.exec_policy.transient_failure_prob = 0.0;
  Coordinator coordinator(fleet, probe, config, sink);
  (void)coordinator.Run(0, config.period);
  const obs::prof::Report report = obs::prof::Drain();
  obs::prof::Disable();
  obs::prof::Reset();

  std::size_t iteration_spans = 0;
  std::size_t probe_records = 0;
  for (const auto& record : report.records) {
    if (record.name != nullptr &&
        std::string_view(record.name) == "coordinator.iteration") {
      ++iteration_spans;
      EXPECT_EQ(record.sim_start, 0);
      EXPECT_GT(record.sim_end, 0);
    }
    if (record.name == nullptr && record.phase == obs::prof::Phase::kProbe) {
      ++probe_records;
    }
  }
  EXPECT_EQ(iteration_spans, 1u);
  EXPECT_EQ(probe_records, 2u);
}

TEST(CoordinatorTest, NullRegistryRunsUninstrumented) {
  auto fleet = SmallFleet(2);
  RecordingSink sink;
  W32Probe probe;
  CoordinatorConfig config;  // metrics default to null
  Coordinator coordinator(fleet, probe, config, sink);
  const auto stats = coordinator.Run(0, config.period);
  EXPECT_EQ(stats.attempts, 2u);  // plain run still works
}

TEST(CoordinatorTest, ZeroSpanRunsNothing) {
  auto fleet = SmallFleet(2);
  RecordingSink sink;
  W32Probe probe;
  CoordinatorConfig config;
  Coordinator coordinator(fleet, probe, config, sink);
  const auto stats = coordinator.Run(100, 100);
  EXPECT_EQ(stats.iterations, 0u);
  EXPECT_EQ(stats.attempts, 0u);
}

// --- retry-hardened collection ----------------------------------------------

TEST(CoordinatorRetryTest, RejectedSampleIsRetriedAndRecovered) {
  auto fleet = SmallFleet(1);
  fleet.machine(0).Boot(0);
  RecordingSink sink;
  sink.verdicts = {SampleVerdict::kRejected, SampleVerdict::kAccepted};
  W32Probe probe;
  CoordinatorConfig config;
  config.exec_policy.transient_failure_prob = 0.0;
  config.retry.max_attempts = 2;
  Coordinator coordinator(fleet, probe, config, sink);
  const auto stats = coordinator.Run(0, 2 * config.period);

  // Each iteration: first payload rejected, the retry accepted.
  EXPECT_EQ(stats.iterations, 2u);
  EXPECT_EQ(stats.attempts, 4u);
  EXPECT_EQ(stats.retried_collections, 2u);
  EXPECT_EQ(stats.retry_attempts, 2u);
  EXPECT_EQ(stats.recovered_after_retry, 2u);
  EXPECT_EQ(stats.corrupt, 0u);
  EXPECT_EQ(stats.missing, 0u);
  EXPECT_DOUBLE_EQ(stats.RetryRecoveryRate(), 1.0);

  ASSERT_EQ(sink.samples.size(), 4u);
  EXPECT_EQ(sink.samples[0].attempt_number, 1u);
  EXPECT_FALSE(sink.samples[0].recovered);
  EXPECT_EQ(sink.samples[1].attempt_number, 2u);
  EXPECT_TRUE(sink.samples[1].recovered);
  // The retry happens later in sim time (latency + backoff).
  EXPECT_GT(sink.samples[1].attempt_time, sink.samples[0].attempt_time);
}

TEST(CoordinatorRetryTest, ExhaustedRejectsCountAsCorrupt) {
  auto fleet = SmallFleet(1);
  fleet.machine(0).Boot(0);
  RecordingSink sink;
  sink.verdicts = {SampleVerdict::kRejected};  // never acceptable
  W32Probe probe;
  CoordinatorConfig config;
  config.exec_policy.transient_failure_prob = 0.0;
  config.retry.max_attempts = 3;
  Coordinator coordinator(fleet, probe, config, sink);
  const auto stats = coordinator.Run(0, config.period);

  EXPECT_EQ(stats.attempts, 3u);
  EXPECT_EQ(stats.corrupt, 1u);
  EXPECT_EQ(stats.missing, 0u);
  EXPECT_EQ(stats.recovered_after_retry, 0u);
  EXPECT_EQ(stats.retried_collections, 1u);
  EXPECT_EQ(stats.retry_attempts, 2u);
}

TEST(CoordinatorRetryTest, RejectsNotRetriedWhenPolicyForbids) {
  auto fleet = SmallFleet(1);
  fleet.machine(0).Boot(0);
  RecordingSink sink;
  sink.verdicts = {SampleVerdict::kRejected};
  W32Probe probe;
  CoordinatorConfig config;
  config.exec_policy.transient_failure_prob = 0.0;
  config.retry.max_attempts = 3;
  config.retry.retry_rejects = false;
  Coordinator coordinator(fleet, probe, config, sink);
  const auto stats = coordinator.Run(0, config.period);
  EXPECT_EQ(stats.attempts, 1u);
  EXPECT_EQ(stats.corrupt, 1u);
}

TEST(CoordinatorRetryTest, TimeoutsAreNotRetriedByDefault) {
  auto fleet = SmallFleet(3);  // all machines off -> every attempt times out
  RecordingSink sink;
  W32Probe probe;
  CoordinatorConfig config;
  config.retry.max_attempts = 4;
  Coordinator coordinator(fleet, probe, config, sink);
  const auto stats = coordinator.Run(0, config.period);

  // A powered-off host will not answer seconds later; no retries burned.
  EXPECT_EQ(stats.attempts, 3u);
  EXPECT_EQ(stats.retry_attempts, 0u);
  EXPECT_EQ(stats.missing, 3u);
  EXPECT_EQ(stats.corrupt, 0u);
}

TEST(CoordinatorRetryTest, TimeoutsRetriedWhenOptedIn) {
  auto fleet = SmallFleet(1);
  RecordingSink sink;
  W32Probe probe;
  CoordinatorConfig config;
  config.retry.max_attempts = 3;
  config.retry.retry_timeouts = true;
  Coordinator coordinator(fleet, probe, config, sink);
  const auto stats = coordinator.Run(0, config.period);
  EXPECT_EQ(stats.attempts, 3u);
  EXPECT_EQ(stats.missing, 1u);
  EXPECT_EQ(stats.retried_collections, 1u);
  EXPECT_EQ(stats.retry_attempts, 2u);
}

TEST(CoordinatorRetryTest, TransientErrorsAreRetriedAndRecovered) {
  auto fleet = SmallFleet(4);
  for (std::size_t i = 0; i < fleet.size(); ++i) fleet.machine(i).Boot(0);
  RecordingSink sink;
  W32Probe probe;
  CoordinatorConfig config;
  // High blip rate so retries demonstrably fire; each retry redraws, so
  // most collections recover within three attempts.
  config.exec_policy.transient_failure_prob = 0.3;
  config.retry.max_attempts = 4;
  Coordinator coordinator(fleet, probe, config, sink);
  const auto stats = coordinator.Run(0, 20 * config.period);

  EXPECT_GT(stats.errors, 0u);
  EXPECT_GT(stats.retried_collections, 0u);
  EXPECT_GT(stats.recovered_after_retry, 0u);
  EXPECT_GE(stats.RetryRecoveryRate(), 0.8);
  EXPECT_EQ(stats.corrupt, 0u);
}

TEST(CoordinatorRetryTest, IterationBudgetCapsRetries) {
  auto fleet = SmallFleet(1);
  fleet.machine(0).Boot(0);
  RecordingSink sink;
  sink.verdicts = {SampleVerdict::kRejected};  // would retry forever
  W32Probe probe;
  CoordinatorConfig config;
  config.exec_policy.transient_failure_prob = 0.0;
  config.retry.max_attempts = 50;
  config.retry.iteration_budget_s = 25.0;
  Coordinator coordinator(fleet, probe, config, sink);
  const auto stats = coordinator.Run(0, config.period);

  // Backoff doubles each round; the budget cuts the loop off long before
  // max_attempts, and the iteration never grows past the period.
  EXPECT_GE(stats.attempts, 2u);
  EXPECT_LT(stats.attempts, 10u);
  EXPECT_EQ(stats.corrupt, 1u);
  EXPECT_LE(stats.max_iteration_s, static_cast<double>(config.period));
}

TEST(CoordinatorRetryTest, DefaultPolicyKeepsSingleAttemptBehaviour) {
  // max_attempts = 1 must reproduce the paper's collection byte for byte:
  // same samples, same timing, no retry machinery observable.
  const auto run = [](int max_attempts) {
    auto fleet = SmallFleet(5);
    for (std::size_t i = 0; i < fleet.size(); i += 2) fleet.machine(i).Boot(0);
    RecordingSink sink;
    W32Probe probe;
    CoordinatorConfig config;
    config.exec_policy.transient_failure_prob = 0.0;
    config.retry.max_attempts = max_attempts;
    Coordinator coordinator(fleet, probe, config, sink);
    (void)coordinator.Run(0, 4 * config.period);
    std::vector<std::pair<util::SimTime, std::string>> log;
    for (const auto& s : sink.samples) {
      log.emplace_back(s.attempt_time, s.outcome.stdout_text);
    }
    return log;
  };
  // With nothing retryable (all failures are timeouts), enabling retries
  // changes nothing at all.
  EXPECT_EQ(run(1), run(3));
}

TEST(CoordinatorRetryTest, CrosscheckPeriodZeroDisablesCrosscheckCleanly) {
  auto fleet = SmallFleet(3);
  for (std::size_t i = 0; i < fleet.size(); ++i) fleet.machine(i).Boot(0);
  RecordingSink sink;
  W32Probe probe;
  CoordinatorConfig config;
  config.exec_policy.transient_failure_prob = 0.0;
  config.structured_fast_path = true;
  config.structured_crosscheck_period = 0;  // regression: must not div-by-zero
  Coordinator coordinator(fleet, probe, config, sink);
  const auto stats = coordinator.Run(0, 2 * config.period);
  EXPECT_EQ(stats.successes, 6u);
  for (const auto& sample : sink.samples) {
    ASSERT_NE(sample.structured, nullptr);
    EXPECT_TRUE(sample.outcome.stdout_text.empty())
        << "no cross-check text should ever be rendered with period 0";
  }
}

TEST(CoordinatorRetryTest, InvalidRetryPolicyIsClampedNotFatal) {
  auto fleet = SmallFleet(2);
  fleet.machine(0).Boot(0);
  RecordingSink sink;
  W32Probe probe;
  CoordinatorConfig config;
  config.retry.max_attempts = -5;
  config.retry.backoff_initial_s = -1.0;
  config.retry.backoff_multiplier = 0.0;
  config.retry.jitter_fraction = 7.0;
  config.retry.iteration_budget_s = -300.0;
  Coordinator coordinator(fleet, probe, config, sink);
  const auto stats = coordinator.Run(0, config.period);
  EXPECT_EQ(stats.attempts, 2u);  // clamped to one attempt per machine
  EXPECT_EQ(stats.retry_attempts, 0u);
}

TEST(CoordinatorRetryTest, RetryMetricsReportIntoTheRegistry) {
  auto fleet = SmallFleet(1);
  fleet.machine(0).Boot(0);
  RecordingSink sink;
  sink.verdicts = {SampleVerdict::kRejected, SampleVerdict::kAccepted};
  W32Probe probe;
  obs::Registry registry;
  CoordinatorConfig config;
  config.exec_policy.transient_failure_prob = 0.0;
  config.retry.max_attempts = 2;
  config.metrics = &registry;
  Coordinator coordinator(fleet, probe, config, sink);
  const auto stats = coordinator.Run(0, config.period);

  EXPECT_EQ(registry
                .GetCounter("labmon_ddc_retry_attempts_total", "")
                .value(),
            stats.retry_attempts);
  EXPECT_EQ(registry
                .GetCounter("labmon_ddc_collection_outcomes_total", "",
                            {{"result", "recovered_after_retry"}})
                .value(),
            stats.recovered_after_retry);
}

}  // namespace
}  // namespace labmon::ddc
