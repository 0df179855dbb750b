#include "labmon/analysis/capacity.hpp"

#include "labmon/obs/prof.hpp"

#include <algorithm>
#include <vector>

#include "labmon/util/strings.hpp"

namespace labmon::analysis {

namespace {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double idx = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

}  // namespace

CapacityResult ComputeHarvestableCapacity(const trace::TraceStore& trace,
                                          const CapacityOptions& options) {
  obs::Span span("analysis.capacity");
  CapacityResult result;
  const std::size_t iterations = trace.iterations().size();
  std::vector<double> ram_mb_sum(iterations, 0.0);
  std::vector<double> disk_gb_sum(iterations, 0.0);
  for (const auto& s : trace.samples()) {
    if (s.iteration >= iterations) continue;
    ram_mb_sum[s.iteration] += s.FreeRamMb();
    disk_gb_sum[s.iteration] += static_cast<double>(s.disk_free_b) / 1e9;
  }

  const double replication =
      std::max(1, options.replication);
  std::vector<double> ram_points;
  std::vector<double> disk_points;
  ram_points.reserve(iterations);
  disk_points.reserve(iterations);
  for (std::size_t i = 0; i < iterations; ++i) {
    const auto t = trace.iterations()[i].start_t;
    const double ram_gb = ram_mb_sum[i] / 1024.0 *
                          options.ram_donation_fraction / replication;
    const double disk_tb = disk_gb_sum[i] / 1024.0 *
                           options.disk_donation_fraction / replication;
    result.ram_gb.Append(t, ram_gb);
    result.ram_gb_weekly.Add(t, ram_gb);
    result.disk_tb.Append(t, disk_tb);
    ram_points.push_back(ram_gb);
    disk_points.push_back(disk_tb);
  }
  result.mean_ram_gb = result.ram_gb.Mean();
  result.p10_ram_gb = Percentile(ram_points, 0.10);
  result.mean_disk_tb = result.disk_tb.Mean();
  result.p10_disk_tb = Percentile(disk_points, 0.10);
  return result;
}

std::string RenderCapacity(const CapacityResult& result,
                           const CapacityOptions& options) {
  using util::FormatFixed;
  std::string out = "Harvestable capacity (replication x" +
                    std::to_string(options.replication) + ", donating " +
                    FormatFixed(100.0 * options.ram_donation_fraction, 0) +
                    "% of free RAM / " +
                    FormatFixed(100.0 * options.disk_donation_fraction, 0) +
                    "% of free disk):\n";
  out += "  network RAM: mean " + FormatFixed(result.mean_ram_gb, 1) +
         " GB, dependable floor (p10) " + FormatFixed(result.p10_ram_gb, 1) +
         " GB\n";
  out += "  distributed backup: mean " + FormatFixed(result.mean_disk_tb, 2) +
         " TB, dependable floor (p10) " +
         FormatFixed(result.p10_disk_tb, 2) + " TB\n";
  return out;
}

}  // namespace labmon::analysis
