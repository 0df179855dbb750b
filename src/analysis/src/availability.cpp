#include "labmon/analysis/availability.hpp"

#include "labmon/obs/prof.hpp"

#include <algorithm>

#include "labmon/stats/nines.hpp"
#include "labmon/stats/running_stats.hpp"
#include "labmon/util/strings.hpp"
#include "labmon/util/table.hpp"

namespace labmon::analysis {

AvailabilitySeries ComputeAvailabilitySeries(
    const trace::TraceStore& trace, std::int64_t forgotten_threshold_s) {
  obs::Span span("analysis.availability");
  AvailabilitySeries series;
  // Per-iteration counters (iterations appear in order in the metadata).
  std::vector<std::uint32_t> on(trace.iterations().size(), 0);
  std::vector<std::uint32_t> free(trace.iterations().size(), 0);
  for (const auto& s : trace.samples()) {
    if (s.iteration >= on.size()) continue;
    ++on[s.iteration];
    if (!s.CountsAsOccupied(forgotten_threshold_s)) ++free[s.iteration];
  }
  for (std::size_t i = 0; i < trace.iterations().size(); ++i) {
    const auto t = trace.iterations()[i].start_t;
    series.powered_on.Append(t, on[i]);
    series.user_free.Append(t, free[i]);
  }
  series.mean_powered_on = series.powered_on.Mean();
  series.mean_user_free = series.user_free.Mean();
  return series;
}

UptimeRanking ComputeUptimeRanking(const trace::TraceStore& trace) {
  const auto counts = trace.ResponsesPerMachine();
  std::vector<std::uint64_t> responses(trace.machine_count(), 0);
  for (std::size_t m = 0; m < responses.size() && m < counts.size(); ++m) {
    responses[m] = counts[m];
  }
  return ComputeUptimeRanking(responses, trace.iterations().size());
}

UptimeRanking ComputeUptimeRanking(
    std::span<const std::uint64_t> responses_per_machine,
    std::size_t iteration_count) {
  obs::Span span("analysis.uptime_ranking");
  UptimeRanking ranking;
  // Attempts per machine = iteration count (every iteration probes all).
  const auto attempts = static_cast<double>(iteration_count);
  ranking.entries.reserve(responses_per_machine.size());
  for (std::size_t m = 0; m < responses_per_machine.size(); ++m) {
    UptimeRanking::Entry entry;
    entry.machine = static_cast<std::uint32_t>(m);
    const auto responded = static_cast<double>(responses_per_machine[m]);
    entry.uptime_ratio = attempts > 0.0 ? responded / attempts : 0.0;
    entry.nines = stats::AvailabilityToNines(entry.uptime_ratio);
    ranking.entries.push_back(entry);
  }
  std::sort(ranking.entries.begin(), ranking.entries.end(),
            [](const auto& a, const auto& b) {
              return a.uptime_ratio > b.uptime_ratio;
            });
  for (const auto& e : ranking.entries) {
    if (e.uptime_ratio > 0.5) ++ranking.machines_above_half;
    if (e.uptime_ratio > 0.8) ++ranking.machines_above_08;
    if (e.uptime_ratio > 0.9) ++ranking.machines_above_09;
  }
  return ranking;
}

SessionLengthDistribution ComputeSessionLengthDistribution(
    const std::vector<trace::MachineSession>& sessions) {
  obs::Span span("analysis.session_lengths");
  SessionLengthDistribution dist{
      stats::Histogram(0.0, 96.0, 48), 0, 0.0, 0.0, 0.0, 0.0};
  stats::RunningStats lengths;
  double uptime_total_h = 0.0;
  double uptime_within_h = 0.0;
  std::uint64_t within = 0;
  for (const auto& s : sessions) {
    const double hours = static_cast<double>(s.last_uptime_s) / 3600.0;
    dist.histogram.Add(hours);
    lengths.Add(hours);
    uptime_total_h += hours;
    if (hours <= 96.0) {
      ++within;
      uptime_within_h += hours;
    }
  }
  dist.total_sessions = sessions.size();
  dist.fraction_within_96h =
      sessions.empty() ? 0.0
                       : 100.0 * static_cast<double>(within) /
                             static_cast<double>(sessions.size());
  dist.uptime_fraction_within_96h =
      uptime_total_h > 0.0 ? 100.0 * uptime_within_h / uptime_total_h : 0.0;
  dist.mean_hours = lengths.mean();
  dist.stddev_hours = lengths.stddev();
  return dist;
}

std::string RenderUptimeRanking(const UptimeRanking& ranking,
                                std::size_t step) {
  util::AsciiTable table(
      "Figure 4 (left): uptime ratio and availability in nines "
      "(machines sorted by cumulated uptime)");
  table.SetHeader({"Rank", "Uptime ratio", "Nines"});
  for (std::size_t i = 0; i < ranking.entries.size(); i += step) {
    const auto& e = ranking.entries[i];
    table.AddRow({std::to_string(i + 1),
                  util::FormatFixed(e.uptime_ratio, 3),
                  util::FormatFixed(e.nines, 3)});
  }
  std::string out = table.Render();
  out += "machines with uptime ratio > 0.5: " +
         std::to_string(ranking.machines_above_half) + " (paper: 30)\n";
  out += "machines with uptime ratio > 0.8: " +
         std::to_string(ranking.machines_above_08) + " (paper: <10)\n";
  out += "machines with uptime ratio > 0.9: " +
         std::to_string(ranking.machines_above_09) + " (paper: 0)\n";
  return out;
}

}  // namespace labmon::analysis
