#include "labmon/analysis/equivalence.hpp"

#include "labmon/obs/prof.hpp"

#include <cassert>

#include "labmon/stats/running_stats.hpp"
#include "labmon/trace/intervals.hpp"
#include "labmon/util/strings.hpp"
#include "labmon/util/table.hpp"

namespace labmon::analysis {

EquivalenceResult ComputeEquivalence(const trace::TraceStore& trace,
                                     const std::vector<double>& perf_index,
                                     int bin_minutes,
                                     std::int64_t forgotten_threshold_s) {
  obs::Span span("analysis.equivalence");
  assert(perf_index.size() >= trace.machine_count());
  double fleet_perf = 0.0;
  for (std::size_t m = 0; m < trace.machine_count(); ++m) {
    fleet_perf += perf_index[m];
  }

  EquivalenceResult result{stats::WeeklyProfile(bin_minutes),
                           stats::WeeklyProfile(bin_minutes),
                           stats::WeeklyProfile(bin_minutes),
                           0.0,
                           0.0,
                           0.0};
  if (fleet_perf <= 0.0 || trace.iterations().empty()) return result;

  // Accumulate per-iteration performance-weighted idleness by class.
  const std::size_t iterations = trace.iterations().size();
  std::vector<double> occupied_sum(iterations, 0.0);
  std::vector<double> free_sum(iterations, 0.0);

  trace::IntervalOptions options;
  options.forgotten_threshold_s = forgotten_threshold_s;
  trace::ForEachInterval(trace, options, [&](const trace::SampleInterval& i) {
    const auto& closing = trace.samples()[i.end_index];
    if (closing.iteration >= iterations) return;
    const double contribution =
        i.cpu_idle_pct / 100.0 * perf_index[i.machine];
    if (i.login_class == trace::LoginClass::kWithLogin) {
      occupied_sum[closing.iteration] += contribution;
    } else {
      free_sum[closing.iteration] += contribution;
    }
  });

  stats::RunningStats occupied_mean;
  stats::RunningStats free_mean;
  for (std::size_t it = 0; it < iterations; ++it) {
    const auto t = trace.iterations()[it].start_t;
    const double occ = occupied_sum[it] / fleet_perf;
    const double fre = free_sum[it] / fleet_perf;
    result.weekly_occupied.Add(t, occ);
    result.weekly_free.Add(t, fre);
    result.weekly_total.Add(t, occ + fre);
    occupied_mean.Add(occ);
    free_mean.Add(fre);
  }
  result.mean_occupied = occupied_mean.mean();
  result.mean_free = free_mean.mean();
  result.mean_total = result.mean_occupied + result.mean_free;
  return result;
}

std::string RenderEquivalence(const EquivalenceResult& result) {
  util::AsciiTable table(
      "Figure 6: weekly distribution of the cluster-equivalence ratio");
  table.SetHeader({"When", "Occupied", "User-free", "Total"});
  const int per_hour = 60 / result.weekly_total.bin_minutes();
  for (int hour_of_week = 0; hour_of_week < 7 * 24; hour_of_week += 4) {
    const int lo = hour_of_week * 60;
    const int hi = lo + 240;
    table.AddRow(
        {result.weekly_total.BinLabel(
             static_cast<std::size_t>(hour_of_week * per_hour)),
         util::FormatFixed(result.weekly_occupied.MeanOverWindow(lo, hi), 3),
         util::FormatFixed(result.weekly_free.MeanOverWindow(lo, hi), 3),
         util::FormatFixed(result.weekly_total.MeanOverWindow(lo, hi), 3)});
  }
  std::string out = table.Render();
  out += "mean equivalence ratio, occupied machines: " +
         util::FormatFixed(result.mean_occupied, 3) + " (paper: 0.26)\n";
  out += "mean equivalence ratio, user-free machines: " +
         util::FormatFixed(result.mean_free, 3) + " (paper: 0.25)\n";
  out += "mean equivalence ratio, total: " +
         util::FormatFixed(result.mean_total, 3) +
         " (paper: 0.51 — the 2:1 rule)\n";
  return out;
}

}  // namespace labmon::analysis
