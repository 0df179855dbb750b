#include "labmon/analysis/session_hours.hpp"

#include "labmon/obs/prof.hpp"

#include <algorithm>
#include <limits>

#include "labmon/stats/running_stats.hpp"
#include "labmon/trace/intervals.hpp"
#include "labmon/util/strings.hpp"
#include "labmon/util/table.hpp"

namespace labmon::analysis {

SessionHourProfile ComputeSessionHourProfile(const trace::TraceStore& trace,
                                             int max_hours) {
  obs::Span span("analysis.session_hours");
  std::vector<stats::RunningStats> bins(
      static_cast<std::size_t>(max_hours) + 1);

  trace::IntervalOptions options;
  // No reclassification here: Figure 2 is computed on raw login samples.
  options.forgotten_threshold_s = std::numeric_limits<std::int64_t>::max();
  trace::ForEachInterval(trace, options, [&](const trace::SampleInterval& i) {
    const auto& closing = trace.samples()[i.end_index];
    if (!closing.has_session) return;
    const auto hour = closing.SessionSeconds() / 3600;
    const auto bin = static_cast<std::size_t>(
        std::min<std::int64_t>(hour, max_hours));
    bins[bin].Add(i.cpu_idle_pct);
  });

  SessionHourProfile profile;
  profile.bins.reserve(bins.size());
  for (std::size_t h = 0; h < bins.size(); ++h) {
    SessionHourBin bin;
    bin.hour = static_cast<int>(h);
    bin.samples = static_cast<std::uint64_t>(bins[h].count());
    bin.mean_cpu_idle_pct = bins[h].mean();
    profile.bins.push_back(bin);
    if (profile.first_bin_above_99 < 0 && bin.samples > 0 &&
        bin.mean_cpu_idle_pct >= 99.0) {
      profile.first_bin_above_99 = bin.hour;
    }
  }
  return profile;
}

std::string RenderSessionHourProfile(const SessionHourProfile& profile) {
  util::AsciiTable table(
      "Figure 2: samples of interactive sessions grouped by relative hour "
      "since logon");
  table.SetHeader({"Hour bin", "Samples", "Avg CPU idle (%)"});
  for (const auto& bin : profile.bins) {
    const std::string label =
        bin.hour == static_cast<int>(profile.bins.size()) - 1
            ? "[" + std::to_string(bin.hour) + "+"
            : "[" + std::to_string(bin.hour) + "-" +
                  std::to_string(bin.hour + 1) + "[";
    table.AddRow({label, std::to_string(bin.samples),
                  util::FormatFixed(bin.mean_cpu_idle_pct, 2)});
  }
  std::string out = table.Render();
  out += "first bin with avg idleness >= 99%: [" +
         std::to_string(profile.first_bin_above_99) + "-" +
         std::to_string(profile.first_bin_above_99 + 1) +
         "[ (paper: [10-11[)\n";
  return out;
}

}  // namespace labmon::analysis
