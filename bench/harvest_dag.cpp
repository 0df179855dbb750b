// harvest_dag — DAG scheduling on the idle fleet, plus the machine-readable
// equivalence cross-check CI gates on.
//
// Three sections:
//   1. Figure 6 cross-check: a saturating bag-of-tasks harvested over one
//      full week (free+occupied and free-only) — the realised
//      effective-dedicated-machines ratio next to the paper's 0.51 / 0.25.
//   2. Workload-mix table: every canonical dag shape executed on the
//      3-day campus, with goodput, waste, evictions, retries and the
//      slowdown against a dedicated cluster of the same size.
//   3. Chaos: the representative fault plan (transient failures, hangs,
//      stragglers, scripted crashes + a lab outage) vs the zero-fault run,
//      with the determinism hashes the gate pins.
//
// Writes BENCH_harvest.json for bench/harvest_gate. The week-long
// equivalence section always runs 7 days (the paper's ratio averages a
// full week's rhythm); LABMON_BENCH_DAYS only scales the mix/chaos
// sections.
#include "bench_common.hpp"

#include <sstream>

#include "labmon/faultsim/fault_plan.hpp"
#include "labmon/harvest/dag_scheduler.hpp"
#include "labmon/util/csv.hpp"
#include "labmon/util/strings.hpp"
#include "labmon/util/table.hpp"
#include "labmon/winsim/paper_specs.hpp"
#include "labmon/workload/driver.hpp"

namespace {

using namespace labmon;

struct Campus {
  explicit Campus(int days, std::uint64_t seed) {
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

harvest::DagResult EquivalenceRun(bool use_occupied, std::uint64_t seed) {
  Campus c(7, seed);
  harvest::JobMixOptions o;
  o.kind = harvest::JobMixKind::kBagOfTasks;
  o.jobs = 6000;
  o.mean_index_hours = 150.0;  // far more work than the week can deliver
  o.sigma_index_hours = 30.0;
  o.seed = seed;
  const harvest::JobDag dag = harvest::MakeJobMix(o);
  harvest::DagPolicy policy;
  policy.grid.use_occupied_machines = use_occupied;
  policy.grid.claim_delay_s = 0;
  harvest::DagScheduler scheduler(*c.fleet, *c.driver, policy);
  return scheduler.Run(dag, 0, c.campus.EndTime());
}

faultsim::FaultPlan MixedPlan(std::uint64_t seed) {
  faultsim::FaultPlan plan;
  plan.enabled = true;
  plan.seed = seed;
  plan.stochastic.transient_error_prob = 0.01;
  plan.stochastic.hang_prob = 0.01;
  plan.stochastic.straggler_prob = 0.02;
  faultsim::ScriptedOutage outage;
  outage.lab = "L03";
  outage.start = 36000;
  outage.end = 43200;
  plan.outages.push_back(outage);
  for (std::size_t m : {7u, 80u, 120u}) {
    faultsim::ScriptedCrash crash;
    crash.machine = m;
    crash.at = 90000 + static_cast<util::SimTime>(m) * 600;
    crash.down_seconds = 3600;
    plan.crashes.push_back(crash);
  }
  return plan;
}

harvest::DagResult ChaosRun(const faultsim::FaultPlan* plan, int days,
                            std::uint64_t seed) {
  Campus c(days, seed);
  harvest::JobMixOptions o;
  o.kind = harvest::JobMixKind::kMixed;
  o.jobs = 150;
  o.mean_index_hours = 6.0;
  o.seed = seed;
  const harvest::JobDag dag = harvest::MakeJobMix(o);
  harvest::DagPolicy policy;
  harvest::DagScheduler scheduler(*c.fleet, *c.driver, policy);
  if (plan != nullptr) scheduler.SetFaultPlan(*plan);
  return scheduler.Run(dag, 0, c.campus.EndTime());
}

std::string F(double v, int digits = 3) { return util::FormatFixed(v, digits); }

std::string HexHash(std::uint64_t h) {
  std::ostringstream hex;
  hex << std::hex << h;
  return hex.str();
}

}  // namespace

int main() {
  bench::Banner("Harvest DAG scheduler: opportunistic work on the idle fleet");
  const std::uint64_t seed = bench::BenchSeed();
  const int mix_days = std::min(bench::BenchDays(), 7);

  // ---- 1. Figure 6 cross-check -------------------------------------------
  const auto total = EquivalenceRun(/*use_occupied=*/true, seed);
  const auto free_only = EquivalenceRun(/*use_occupied=*/false, seed);
  const auto fig6_total = bench::CompareWithFig6(
      total.effective_dedicated_machines, 169, bench::kPaperEquivalenceTotal);
  const auto fig6_free =
      bench::CompareWithFig6(free_only.effective_dedicated_machines, 169,
                             bench::kPaperEquivalenceFree);

  util::AsciiTable fig6("Figure 6 cross-check (saturating bag, 7-day week)");
  fig6.SetHeader({"Mode", "Effective machines", "Ratio", "Paper", "Error"});
  fig6.AddRow({"free+occupied", F(total.effective_dedicated_machines, 1),
               F(fig6_total.ratio), F(fig6_total.paper_ratio, 2),
               F(100.0 * fig6_total.relative_error, 1) + "%"});
  fig6.AddRow({"free-only", F(free_only.effective_dedicated_machines, 1),
               F(fig6_free.ratio), F(fig6_free.paper_ratio, 2),
               F(100.0 * fig6_free.relative_error, 1) + "%"});
  std::cout << fig6.Render() << "\n";

  // ---- 2. Workload mixes --------------------------------------------------
  util::AsciiTable mixes("DAG mixes: 150 jobs x ~6 index-hours, " +
                         std::to_string(mix_days) + "-day horizon");
  mixes.SetHeader({"Mix", "Done", "Failed", "Makespan (h)", "Waste (%)",
                   "Evictions", "Retries", "Slowdown", "CP stretch"});
  for (const harvest::JobMixKind kind :
       {harvest::JobMixKind::kBagOfTasks, harvest::JobMixKind::kChain,
        harvest::JobMixKind::kFanInFanOut, harvest::JobMixKind::kRandomLayered,
        harvest::JobMixKind::kMixed}) {
    Campus c(mix_days, seed);
    harvest::JobMixOptions o;
    o.kind = kind;
    o.jobs = 150;
    o.mean_index_hours = 6.0;
    o.seed = seed;
    const harvest::JobDag dag = harvest::MakeJobMix(o);
    harvest::DagPolicy policy;
    harvest::DagScheduler scheduler(*c.fleet, *c.driver, policy);
    const auto r = scheduler.Run(dag, 0, c.campus.EndTime());
    mixes.AddRow(
        {harvest::JobMixName(kind),
         std::to_string(r.jobs_completed) + "/" + std::to_string(r.jobs_total),
         std::to_string(r.jobs_failed),
         r.dag_finished ? F(r.makespan_s / 3600.0, 1) : "DNF",
         F(100.0 * r.WasteFraction(), 1),
         std::to_string(r.evictions_login + r.evictions_poweroff +
                        r.evictions_chaos),
         std::to_string(r.retries),
         r.dag_finished ? F(r.harvest_slowdown, 1) + "x" : "-",
         r.dag_finished ? F(r.critical_path_stretch, 1) + "x" : "-"});
  }
  std::cout << mixes.Render() << "\n";

  // ---- 3. Chaos ----------------------------------------------------------
  const int chaos_days = std::min(bench::BenchDays(), 5);
  const faultsim::FaultPlan plan = MixedPlan(seed);
  const auto chaos = ChaosRun(&plan, chaos_days, seed);
  const auto chaos_rerun = ChaosRun(&plan, chaos_days, seed);
  const auto zero = ChaosRun(nullptr, chaos_days, seed);
  faultsim::FaultPlan inert;
  inert.enabled = true;  // enabled but empty: must be a strict no-op
  const auto zero_planned = ChaosRun(&inert, chaos_days, seed);

  const double completion =
      chaos.jobs_total > 0 ? static_cast<double>(chaos.jobs_completed) /
                                 static_cast<double>(chaos.jobs_total)
                           : 0.0;
  util::AsciiTable chaos_table("Chaos: mixed plan vs zero-fault, " +
                               std::to_string(chaos_days) + "-day horizon");
  chaos_table.SetHeader(
      {"Run", "Done", "Waste (%)", "Evict chaos", "Task failures", "Hash"});
  const auto chaos_row = [&](const char* name, const harvest::DagResult& r) {
    chaos_table.AddRow(
        {name,
         std::to_string(r.jobs_completed) + "/" + std::to_string(r.jobs_total),
         F(100.0 * r.WasteFraction(), 1), std::to_string(r.evictions_chaos),
         std::to_string(r.chaos_task_failures),
         HexHash(r.ResultHash())});
  };
  chaos_row("mixed plan", chaos);
  chaos_row("mixed plan (rerun)", chaos_rerun);
  chaos_row("zero-fault", zero);
  chaos_row("inert plan", zero_planned);
  std::cout << chaos_table.Render();
  std::cout << "\nThe inert-plan hash must equal the zero-fault hash (strict "
               "no-op) and the\nmixed-plan rerun must be bit-identical; "
               "bench/harvest_gate enforces both,\nplus the Figure 6 band "
               "and the chaos completion/waste bounds.\n";

  // ---- BENCH_harvest.json -------------------------------------------------
  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"harvest_dag\",\n"
       << "  \"days\": " << mix_days << ",\n"
       << "  \"seed\": " << seed << ",\n"
       << "  \"equivalence\": {\n"
       << "    \"fleet_size\": 169,\n"
       << "    \"fleet_mean_index\": " << F(total.fleet_mean_index, 4) << ",\n"
       << "    \"effective_machines_total\": "
       << F(total.effective_dedicated_machines, 4) << ",\n"
       << "    \"effective_machines_free\": "
       << F(free_only.effective_dedicated_machines, 4) << ",\n"
       << "    \"ratio_total\": " << F(fig6_total.ratio, 6) << ",\n"
       << "    \"ratio_free\": " << F(fig6_free.ratio, 6) << ",\n"
       << "    \"paper_ratio_total\": " << F(bench::kPaperEquivalenceTotal, 2)
       << ",\n"
       << "    \"paper_ratio_free\": " << F(bench::kPaperEquivalenceFree, 2)
       << "\n  },\n"
       << "  \"chaos\": {\n"
       << "    \"completion_fraction\": " << F(completion, 6) << ",\n"
       << "    \"waste_fraction\": " << F(chaos.WasteFraction(), 6) << ",\n"
       << "    \"evictions_chaos\": " << chaos.evictions_chaos << ",\n"
       << "    \"chaos_task_failures\": " << chaos.chaos_task_failures << ",\n"
       << "    \"jobs_failed\": " << chaos.jobs_failed << ",\n"
       << "    \"hash\": \"" << HexHash(chaos.ResultHash()) << "\",\n"
       << "    \"rerun_hash\": \"" << HexHash(chaos_rerun.ResultHash())
       << "\",\n"
       << "    \"zero_fault_hash\": \"" << HexHash(zero.ResultHash())
       << "\",\n"
       << "    \"inert_plan_hash\": \""
       << HexHash(zero_planned.ResultHash()) << "\"\n  }\n}\n";
  if (const auto written =
          util::WriteTextFile("BENCH_harvest.json", json.str());
      !written.ok()) {
    std::cerr << "failed to write BENCH_harvest.json: " << written.error()
              << "\n";
    return 1;
  }
  std::cout << "\nwrote BENCH_harvest.json (run bench/harvest_gate on it)\n";
  return 0;
}
