// DagScheduler on a bag of identical work units: the classic desktop-grid
// workload (a JobDag with no edges). Pins the substrate policies — the
// checkpoint timer, the keyboard-idle claim guard, occupied-machine
// harvesting — and the speculative backups ("multiple executions", §6),
// whose first copy wins and whose losers surface as waste, never as
// double credit.
#include <memory>

#include <gtest/gtest.h>

#include "labmon/harvest/dag_scheduler.hpp"
#include "labmon/winsim/paper_specs.hpp"

namespace labmon::harvest {
namespace {

struct GridFixture {
  explicit GridFixture(int days = 2, std::uint64_t seed = 5) {
    campus.days = days;
    campus.seed = seed;
    util::Rng rng(seed);
    fleet = std::make_unique<winsim::Fleet>(winsim::MakePaperFleet(rng));
    driver = std::make_unique<workload::WorkloadDriver>(*fleet, campus);
  }
  workload::CampusConfig campus;
  std::unique_ptr<winsim::Fleet> fleet;
  std::unique_ptr<workload::WorkloadDriver> driver;
};

JobDag Bag(std::size_t units, double unit_hours) {
  DagJob unit;
  unit.index_seconds = unit_hours * 3600.0;
  JobDag dag;
  dag.jobs.assign(units, unit);
  return dag;
}

template <typename Fixture>
DagResult RunBag(Fixture& f, const DagPolicy& policy, std::size_t units,
                 double unit_hours) {
  DagScheduler scheduler(*f.fleet, *f.driver, policy);
  return scheduler.Run(Bag(units, unit_hours), 0, f.campus.EndTime());
}

TEST(BagOfTasksTest, SmallBagCompletes) {
  GridFixture f;
  DagPolicy policy;
  const auto result = RunBag(f, policy, 20, 5.0);
  EXPECT_TRUE(result.dag_finished);
  EXPECT_EQ(result.jobs_completed, 20u);
  EXPECT_GT(result.makespan_s, 0.0);
  EXPECT_LT(result.makespan_s, f.campus.EndTime());
  EXPECT_GE(result.useful_index_seconds, 20 * 5.0 * 3600.0 - 1e-6);
}

TEST(BagOfTasksTest, AccountingInvariants) {
  GridFixture f;
  DagPolicy policy;
  policy.grid.checkpoint_interval_s = 600;
  const auto result = RunBag(f, policy, 400, 20.0);
  EXPECT_LE(result.jobs_completed, result.jobs_total);
  EXPECT_GE(result.wasted_index_seconds, 0.0);
  EXPECT_GE(result.useful_index_seconds,
            static_cast<double>(result.jobs_completed) * 20.0 * 3600.0 -
                1e-6);
  EXPECT_GE(result.mean_busy_machines, 0.0);
  EXPECT_LE(result.mean_busy_machines, 169.0);
  EXPECT_GE(result.WasteFraction(), 0.0);
  EXPECT_LE(result.WasteFraction(), 1.0);
}

TEST(BagOfTasksTest, CheckpointingReducesWaste) {
  // Same behaviour (same seed), different checkpoint intervals: waste must
  // not increase as checkpoints get denser.
  const auto waste_at = [&](double interval_s) {
    GridFixture f(3, 13);
    DagPolicy policy;
    policy.grid.checkpoint_interval_s = interval_s;
    return RunBag(f, policy, 2000, 15.0).wasted_index_seconds;
  };
  const double none = waste_at(0.0);
  const double hourly = waste_at(3600.0);
  const double frequent = waste_at(300.0);
  EXPECT_GT(none, hourly);
  EXPECT_GT(hourly, frequent);
}

TEST(BagOfTasksTest, CheckpointsAreWritten) {
  GridFixture f;
  DagPolicy policy;
  policy.grid.checkpoint_interval_s = 300;
  const auto with_ckpt = RunBag(f, policy, 200, 15.0);
  EXPECT_GT(with_ckpt.checkpoints_written, 0u);
  GridFixture g;
  policy.grid.checkpoint_interval_s = 0.0;
  const auto without = RunBag(g, policy, 200, 15.0);
  EXPECT_EQ(without.checkpoints_written, 0u);
}

TEST(BagOfTasksTest, EvictionsHappenOnBusyCampus) {
  GridFixture f(3);
  DagPolicy policy;
  policy.grid.claim_delay_s = 0;  // aggressive claiming maximises collisions
  const auto result = RunBag(f, policy, 3000, 20.0);
  EXPECT_GT(result.evictions_login + result.evictions_poweroff, 0u);
}

TEST(BagOfTasksTest, OccupiedModeDeliversMoreThroughput) {
  const auto effective = [&](bool occupied) {
    GridFixture f(3, 21);
    DagPolicy policy;
    policy.grid.use_occupied_machines = occupied;
    // Oversized bag: neither finishes, so throughput is comparable.
    return RunBag(f, policy, 100000, 20.0).effective_dedicated_machines;
  };
  const double free_only = effective(false);
  const double with_occupied = effective(true);
  EXPECT_GT(with_occupied, free_only);
  // Both bounded by the fleet's Figure-6 upper limit (~0.55 x 169).
  EXPECT_LT(with_occupied, 110.0);
  EXPECT_GT(free_only, 5.0);
}

TEST(BagOfTasksTest, ClaimDelayReducesLoginEvictions) {
  const auto login_evictions = [&](util::SimTime delay) {
    GridFixture f(2, 31);
    DagPolicy policy;
    policy.grid.claim_delay_s = delay;
    return RunBag(f, policy, 100000, 20.0).evictions_login;
  };
  // A keyboard-idle guard must not make things worse.
  EXPECT_LE(login_evictions(30 * 60), login_evictions(0));
}

TEST(BagOfTasksTest, SpeculativeBackupsImproveTailLatency) {
  // A bag sized so the tail is dominated by stragglers on slow or evicted
  // machines: backups must not lengthen the makespan, and should start at
  // least one copy.
  const auto run = [&](bool backups) {
    GridFixture f(3, 41);
    DagPolicy policy;
    policy.grid.speculative_backups = backups;
    policy.grid.checkpoint_interval_s = 900;
    return RunBag(f, policy, 900, 25.0);
  };
  const auto without = run(false);
  const auto with = run(true);
  ASSERT_TRUE(without.dag_finished);
  ASSERT_TRUE(with.dag_finished);
  EXPECT_GT(with.backup_copies_started, 0u);
  EXPECT_LE(with.makespan_s, without.makespan_s);
  EXPECT_EQ(without.backup_copies_started, 0u);
}

TEST(BagOfTasksTest, BackupsNeverExceedCopyLimit) {
  const auto run = [&](int max_copies) {
    GridFixture f(2, 43);
    DagPolicy policy;
    policy.grid.speculative_backups = true;
    policy.grid.max_copies_per_unit = max_copies;
    return RunBag(f, policy, 50, 10.0);
  };
  const auto result = run(2);
  EXPECT_TRUE(result.dag_finished);
  // Every cancelled copy lost a race against a copy started as a backup.
  EXPECT_LE(result.backup_copies_cancelled, result.backup_copies_started);
  // One copy per job leaves no room for a backup.
  const auto single = run(1);
  EXPECT_EQ(single.backup_copies_started, 0u);
  EXPECT_EQ(single.backup_copies_cancelled, 0u);
}

TEST(BagOfTasksTest, MetricsMirrorTheResultCounters) {
  GridFixture f(3, 41);
  DagPolicy policy;
  policy.grid.speculative_backups = true;
  policy.grid.claim_delay_s = 0;
  obs::Registry registry;
  DagScheduler scheduler(*f.fleet, *f.driver, policy);
  scheduler.SetMetrics(&registry);
  const auto result =
      scheduler.Run(Bag(900, 25.0), 0, f.campus.EndTime());
  ASSERT_GT(result.backup_copies_started, 0u);
  const auto value = [&](const char* name) {
    return registry.GetCounter(name).value();
  };
  EXPECT_EQ(value("labmon_harvest_jobs_completed_total"),
            result.jobs_completed);
  EXPECT_EQ(value("labmon_harvest_evictions_login_total"),
            result.evictions_login);
  EXPECT_EQ(value("labmon_harvest_evictions_poweroff_total"),
            result.evictions_poweroff);
  EXPECT_EQ(value("labmon_harvest_retries_total"), result.retries);
  EXPECT_EQ(value("labmon_harvest_checkpoints_total"),
            result.checkpoints_written);
  EXPECT_EQ(value("labmon_harvest_backup_copies_total"),
            result.backup_copies_started);
}

// A campus with no classes, no walk-ins, no sweeps and no short cycles:
// once booted, machines stay on and session-free for the whole horizon.
workload::CampusConfig QuietCampus(int days, std::uint64_t seed) {
  workload::CampusConfig c;
  c.days = days;
  c.seed = seed;
  c.timetable.weekday_slot_prob = 0.0;
  c.timetable.saturday_slot_prob = 0.0;
  c.timetable.heavy_class_lab = -1;
  c.arrivals.weekday_peak_per_hour = 0.0;
  c.power.sweeps_enabled = false;
  c.power.short_cycles_per_day = 0.0;
  return c;
}

struct QuietFixture {
  explicit QuietFixture(int days = 1, std::uint64_t seed = 5)
      : campus(QuietCampus(days, seed)) {
    util::Rng rng(seed);
    fleet = std::make_unique<winsim::Fleet>(winsim::MakePaperFleet(rng));
    driver = std::make_unique<workload::WorkloadDriver>(*fleet, campus);
    // Booted after driver construction (it requires an all-off fleet);
    // with every behavioural rate zeroed the driver never touches them.
    for (std::size_t i = 0; i < fleet->size(); ++i) {
      fleet->machine(i).Boot(0);
    }
  }
  workload::CampusConfig campus;
  std::unique_ptr<winsim::Fleet> fleet;
  std::unique_ptr<workload::WorkloadDriver> driver;
};

TEST(BagOfTasksTest, OccupiedModeParityOnSessionFreeFleet) {
  // On an always-on fleet with no interactive sessions the occupied-machine
  // knob must not change a single number: eligibility is identical.
  const auto run = [&](bool occupied) {
    QuietFixture f(1, 77);
    DagPolicy policy;
    policy.grid.use_occupied_machines = occupied;
    return RunBag(f, policy, 500, 10.0);
  };
  const auto free_only = run(false);
  const auto occupied = run(true);
  EXPECT_EQ(free_only.jobs_completed, occupied.jobs_completed);
  EXPECT_EQ(free_only.useful_index_seconds, occupied.useful_index_seconds);
  EXPECT_EQ(free_only.wasted_index_seconds, occupied.wasted_index_seconds);
  EXPECT_EQ(free_only.makespan_s, occupied.makespan_s);
  EXPECT_EQ(free_only.evictions_login, occupied.evictions_login);
  EXPECT_EQ(free_only.evictions_poweroff, occupied.evictions_poweroff);
  EXPECT_EQ(free_only.effective_dedicated_machines,
            occupied.effective_dedicated_machines);
}

TEST(BagOfTasksTest, QuietFleetHasNoEvictionsAndNoWaste) {
  QuietFixture f(1, 3);
  DagPolicy policy;
  const auto result = RunBag(f, policy, 100, 5.0);
  EXPECT_TRUE(result.dag_finished);
  EXPECT_EQ(result.evictions_login, 0u);
  EXPECT_EQ(result.evictions_poweroff, 0u);
  EXPECT_DOUBLE_EQ(result.wasted_index_seconds, 0.0);
  EXPECT_DOUBLE_EQ(result.WasteFraction(), 0.0);
}

TEST(BagOfTasksTest, FirstCopyWinsCreditsWorkExactlyOnce) {
  // With speculative backups on, duplicated copies must surface as waste,
  // never as double credit: a finished bag's useful work equals the bag
  // total exactly.
  GridFixture f(3, 41);
  DagPolicy policy;
  policy.grid.speculative_backups = true;
  policy.grid.checkpoint_interval_s = 900;
  const auto result = RunBag(f, policy, 900, 25.0);
  ASSERT_TRUE(result.dag_finished);
  EXPECT_DOUBLE_EQ(result.useful_index_seconds,
                   Bag(900, 25.0).TotalIndexSeconds());
  // Duplicated progress of cancelled copies showed up as waste instead.
  EXPECT_GE(result.wasted_index_seconds, 0.0);
}

TEST(BagOfTasksTest, CheckpointLossBoundsWasteFraction) {
  // Without checkpoints every eviction loses the copy's whole progress, so
  // waste can only grow relative to a checkpointed run — but the fraction
  // stays a fraction in both.
  const auto run = [&](double ckpt_s) {
    GridFixture f(3, 13);
    DagPolicy policy;
    policy.grid.checkpoint_interval_s = ckpt_s;
    policy.grid.claim_delay_s = 0;
    return RunBag(f, policy, 3000, 20.0);
  };
  const auto none = run(0.0);
  const auto frequent = run(300.0);
  EXPECT_GE(none.WasteFraction(), frequent.WasteFraction());
  EXPECT_GE(none.WasteFraction(), 0.0);
  EXPECT_LE(none.WasteFraction(), 1.0);
  EXPECT_GE(frequent.WasteFraction(), 0.0);
  EXPECT_LE(frequent.WasteFraction(), 1.0);
  EXPECT_EQ(none.checkpoints_written, 0u);
  EXPECT_GT(frequent.checkpoints_written, 0u);
}

TEST(DescribePolicyTest, Labels) {
  HarvestPolicy policy;
  policy.checkpoint_interval_s = 900;
  EXPECT_EQ(DescribePolicy(policy), "free-only, ckpt 15 min");
  policy.use_occupied_machines = true;
  policy.checkpoint_interval_s = 0;
  EXPECT_EQ(DescribePolicy(policy), "free+occupied, no ckpt");
  policy.speculative_backups = true;
  EXPECT_EQ(DescribePolicy(policy), "free+occupied, no ckpt, backups");
}

}  // namespace
}  // namespace labmon::harvest
