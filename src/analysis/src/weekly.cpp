#include "labmon/analysis/weekly.hpp"

#include "labmon/obs/prof.hpp"

#include "labmon/trace/intervals.hpp"
#include "labmon/util/strings.hpp"
#include "labmon/util/table.hpp"

namespace labmon::analysis {

WeeklyProfiles ComputeWeeklyProfiles(const trace::TraceStore& trace,
                                     int bin_minutes) {
  obs::Span span("analysis.weekly");
  WeeklyProfiles p{stats::WeeklyProfile(bin_minutes),
                   stats::WeeklyProfile(bin_minutes),
                   stats::WeeklyProfile(bin_minutes),
                   stats::WeeklyProfile(bin_minutes),
                   stats::WeeklyProfile(bin_minutes),
                   0.0,
                   {},
                   0.0,
                   0.0};

  for (const auto& s : trace.samples()) {
    p.ram_load_pct.Add(s.t, s.mem_load_pct);
    p.swap_load_pct.Add(s.t, s.swap_load_pct);
  }
  trace::ForEachInterval(trace, {}, [&](const trace::SampleInterval& i) {
    p.cpu_idle_pct.Add(i.end_t, i.cpu_idle_pct);
    p.sent_bps.Add(i.end_t, i.sent_bps);
    p.recv_bps.Add(i.end_t, i.recv_bps);
  });

  p.min_cpu_idle_pct = p.cpu_idle_pct.MinBinMean();
  const auto argmin = p.cpu_idle_pct.ArgMinBin();
  if (argmin != static_cast<std::size_t>(-1)) {
    p.min_cpu_idle_when = p.cpu_idle_pct.BinLabel(argmin);
  }
  p.min_ram_load_pct = p.ram_load_pct.MinBinMean();
  // The 04:00–08:00 closed window, averaged over Tue–Fri mornings (Monday's
  // 04–08 follows the closed Sunday so machines are mostly off).
  double closed_sum = 0.0;
  int closed_n = 0;
  for (int day = 1; day <= 4; ++day) {  // Tue..Fri
    const int lo = day * 24 * 60 + 4 * 60;
    const int hi = day * 24 * 60 + 8 * 60;
    const double v = p.cpu_idle_pct.MeanOverWindow(lo, hi);
    if (v > 0.0) {
      closed_sum += v;
      ++closed_n;
    }
  }
  p.closed_hours_cpu_idle = closed_n ? closed_sum / closed_n : 0.0;
  return p;
}

std::string RenderWeeklyProfiles(const WeeklyProfiles& profiles) {
  util::AsciiTable table(
      "Figure 5: weekly distribution (hourly means across the week)");
  table.SetHeader({"When", "CPU idle %", "RAM %", "SWAP %", "sent bps",
                   "recv bps"});
  const int per_hour = 60 / profiles.cpu_idle_pct.bin_minutes();
  for (int hour_of_week = 0; hour_of_week < 7 * 24; hour_of_week += 2) {
    const int lo = hour_of_week * 60;
    const int hi = lo + 120;
    const auto label =
        profiles.cpu_idle_pct.BinLabel(static_cast<std::size_t>(
            hour_of_week * per_hour));
    table.AddRow({label,
                  util::FormatFixed(
                      profiles.cpu_idle_pct.MeanOverWindow(lo, hi), 2),
                  util::FormatFixed(
                      profiles.ram_load_pct.MeanOverWindow(lo, hi), 1),
                  util::FormatFixed(
                      profiles.swap_load_pct.MeanOverWindow(lo, hi), 1),
                  util::FormatFixed(profiles.sent_bps.MeanOverWindow(lo, hi), 0),
                  util::FormatFixed(profiles.recv_bps.MeanOverWindow(lo, hi),
                                    0)});
  }
  std::string out = table.Render();
  out += "min weekly CPU idleness: " +
         util::FormatFixed(profiles.min_cpu_idle_pct, 2) + "% at " +
         profiles.min_cpu_idle_when +
         " (paper: <91% on Tuesday afternoon, never below 90%)\n";
  out += "min weekly RAM load: " +
         util::FormatFixed(profiles.min_ram_load_pct, 1) +
         "% (paper: never below 50%)\n";
  out += "closed-hours (Tue-Fri 04:00-08:00) CPU idleness: " +
         util::FormatFixed(profiles.closed_hours_cpu_idle, 2) +
         "% (paper: ~100%)\n";
  return out;
}

}  // namespace labmon::analysis
