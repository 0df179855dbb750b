#include "labmon/analysis/stability.hpp"

#include "labmon/obs/prof.hpp"

#include "labmon/stats/running_stats.hpp"
#include "labmon/util/strings.hpp"
#include "labmon/util/table.hpp"

namespace labmon::analysis {

SessionStats ComputeSessionStats(
    const std::vector<trace::MachineSession>& sessions) {
  obs::Span span("analysis.session_stats");
  SessionStats out;
  stats::RunningStats lengths;
  for (const auto& s : sessions) {
    lengths.Add(static_cast<double>(s.last_uptime_s) / 3600.0);
  }
  out.session_count = sessions.size();
  out.mean_hours = lengths.mean();
  out.stddev_hours = lengths.stddev();
  return out;
}

SmartStats ComputeSmartStats(const trace::TraceStore& trace,
                             std::uint64_t session_count,
                             int experiment_days) {
  obs::Span span("analysis.smart_stats");
  SmartStats out;
  stats::RunningStats per_machine_cycles;
  stats::RunningStats experiment_ratio;
  stats::RunningStats life_ratio;
  std::uint64_t total_cycles = 0;

  for (std::size_t m = 0; m < trace.machine_count(); ++m) {
    const auto indices = trace.MachineSamples(m);
    if (indices.empty()) continue;
    const auto& first = trace.samples()[indices.front()];
    const auto& last = trace.samples()[indices.back()];

    // Cycles accumulated during the monitoring window. The first sample's
    // counter already includes the boot that made the machine reachable, so
    // the difference undercounts by the pre-first-sample boots — the same
    // bias the real methodology has.
    const std::uint64_t cycles =
        last.smart_power_cycles - first.smart_power_cycles;
    const std::uint64_t hours =
        last.smart_power_on_hours - first.smart_power_on_hours;
    total_cycles += cycles;
    per_machine_cycles.Add(static_cast<double>(cycles));
    if (cycles > 0) {
      experiment_ratio.Add(static_cast<double>(hours) /
                           static_cast<double>(cycles));
    }
    // Whole-life ratio from the absolute counters of the last sample.
    if (last.smart_power_cycles > 0) {
      life_ratio.Add(static_cast<double>(last.smart_power_on_hours) /
                     static_cast<double>(last.smart_power_cycles));
    }
  }

  out.experiment_cycles = total_cycles;
  out.cycles_per_machine_mean = per_machine_cycles.mean();
  out.cycles_per_machine_stddev = per_machine_cycles.stddev();
  out.cycles_per_machine_day =
      experiment_days > 0 ? per_machine_cycles.mean() / experiment_days : 0.0;
  out.cycle_excess_over_sessions_pct =
      session_count > 0
          ? 100.0 * (static_cast<double>(total_cycles) /
                         static_cast<double>(session_count) -
                     1.0)
          : 0.0;
  out.experiment_hours_per_cycle_mean = experiment_ratio.mean();
  out.experiment_hours_per_cycle_stddev = experiment_ratio.stddev();
  out.life_hours_per_cycle_mean = life_ratio.mean();
  out.life_hours_per_cycle_stddev = life_ratio.stddev();
  return out;
}

std::string RenderStability(const SessionStats& sessions,
                            const SmartStats& smart) {
  using util::FormatFixed;
  util::AsciiTable table("Machine stability (paper §5.2) — measured vs paper");
  table.SetHeader({"Metric", "Measured", "Paper"});
  table.AddRow({"Machine sessions captured",
                std::to_string(sessions.session_count), "10688"});
  table.AddRow({"Avg session length (h)", FormatFixed(sessions.mean_hours, 2),
                "15.92"});
  table.AddRow({"Session length stddev (h)",
                FormatFixed(sessions.stddev_hours, 2), "26.65"});
  table.AddSeparator();
  table.AddRow({"SMART power cycles (experiment)",
                std::to_string(smart.experiment_cycles), "13871"});
  table.AddRow({"Cycles per machine",
                FormatFixed(smart.cycles_per_machine_mean, 2), "82.57"});
  table.AddRow({"Cycles per machine stddev",
                FormatFixed(smart.cycles_per_machine_stddev, 2), "37.05"});
  table.AddRow({"Cycles per machine-day",
                FormatFixed(smart.cycles_per_machine_day, 2), "1.07"});
  table.AddRow({"Cycle excess over sessions (%)",
                FormatFixed(smart.cycle_excess_over_sessions_pct, 1), "~30"});
  table.AddRow({"Uptime per cycle, experiment (h)",
                FormatFixed(smart.experiment_hours_per_cycle_mean, 2),
                "13.90"});
  table.AddRow({"Uptime per cycle stddev (h)",
                FormatFixed(smart.experiment_hours_per_cycle_stddev, 2),
                "~8"});
  table.AddRow({"Uptime per cycle, whole life (h)",
                FormatFixed(smart.life_hours_per_cycle_mean, 2), "6.46"});
  table.AddRow({"Whole-life stddev (h)",
                FormatFixed(smart.life_hours_per_cycle_stddev, 2), "4.78"});
  return table.Render();
}

}  // namespace labmon::analysis
