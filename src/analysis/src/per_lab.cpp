#include "labmon/analysis/per_lab.hpp"

#include "labmon/obs/prof.hpp"

#include <map>

#include "labmon/stats/running_stats.hpp"
#include "labmon/trace/intervals.hpp"
#include "labmon/util/strings.hpp"
#include "labmon/util/table.hpp"

namespace labmon::analysis {

namespace {

struct LabAccumulator {
  std::uint64_t samples = 0;
  std::uint64_t occupied = 0;
  stats::RunningStats idle;
  stats::RunningStats ram;
  stats::RunningStats free_disk_gb;
};

}  // namespace

std::vector<LabUsage> ComputePerLabUsage(const trace::TraceStore& trace,
                                         const std::vector<LabKey>& labs,
                                         std::int64_t forgotten_threshold_s) {
  obs::Span span("analysis.per_lab");
  // Machine -> lab mapping.
  std::vector<std::size_t> lab_of(trace.machine_count(), labs.size());
  for (std::size_t l = 0; l < labs.size(); ++l) {
    for (std::size_t i = labs[l].first_machine;
         i < labs[l].first_machine + labs[l].machine_count &&
         i < lab_of.size();
         ++i) {
      lab_of[i] = l;
    }
  }

  std::vector<LabAccumulator> acc(labs.size() + 1);  // +1 = fleet total
  for (const auto& s : trace.samples()) {
    const std::size_t l =
        s.machine < lab_of.size() ? lab_of[s.machine] : labs.size();
    for (const std::size_t idx : {l, labs.size()}) {
      auto& a = acc[idx];
      ++a.samples;
      if (s.CountsAsOccupied(forgotten_threshold_s)) ++a.occupied;
      a.ram.Add(s.mem_load_pct);
      a.free_disk_gb.Add(static_cast<double>(s.disk_free_b) / 1e9);
      if (idx == labs.size()) break;  // avoid double count when l == fleet
    }
  }
  trace::IntervalOptions options;
  options.forgotten_threshold_s = forgotten_threshold_s;
  trace::ForEachInterval(trace, options, [&](const trace::SampleInterval& i) {
    const std::size_t l =
        i.machine < lab_of.size() ? lab_of[i.machine] : labs.size();
    if (l < labs.size()) acc[l].idle.Add(i.cpu_idle_pct);
    acc[labs.size()].idle.Add(i.cpu_idle_pct);
  });

  const double iterations = static_cast<double>(trace.iterations().size());
  std::vector<LabUsage> out;
  out.reserve(labs.size() + 1);
  for (std::size_t l = 0; l <= labs.size(); ++l) {
    LabUsage usage;
    if (l < labs.size()) {
      usage.name = labs[l].name;
      usage.machines = labs[l].machine_count;
    } else {
      usage.name = "Fleet";
      usage.machines = trace.machine_count();
    }
    const auto& a = acc[l];
    usage.samples = a.samples;
    const double attempts = iterations * static_cast<double>(usage.machines);
    usage.uptime_pct =
        attempts > 0.0 ? 100.0 * static_cast<double>(a.samples) / attempts
                       : 0.0;
    usage.occupied_pct =
        attempts > 0.0 ? 100.0 * static_cast<double>(a.occupied) / attempts
                       : 0.0;
    usage.cpu_idle_pct = a.idle.mean();
    usage.ram_load_pct = a.ram.mean();
    usage.free_disk_gb = a.free_disk_gb.mean();
    out.push_back(std::move(usage));
  }
  return out;
}

ResourceHeadroom ComputeResourceHeadroom(const trace::TraceStore& trace) {
  obs::Span span("analysis.headroom");
  ResourceHeadroom h;
  stats::RunningStats idle;
  stats::RunningStats unused_ram_pct;
  stats::RunningStats free_ram_mb;
  stats::RunningStats free_disk_gb;
  struct ClassAcc {
    stats::RunningStats pct;
    stats::RunningStats mb;
  };
  std::map<int, ClassAcc> classes;
  for (const auto& s : trace.samples()) {
    unused_ram_pct.Add(100.0 - s.mem_load_pct);
    free_disk_gb.Add(static_cast<double>(s.disk_free_b) / 1e9);
    if (s.ram_mb > 0) {
      free_ram_mb.Add(s.FreeRamMb());
      auto& acc = classes[s.ram_mb];
      acc.pct.Add(100.0 - s.mem_load_pct);
      acc.mb.Add(s.FreeRamMb());
    }
  }
  trace::ForEachInterval(trace, {}, [&](const trace::SampleInterval& i) {
    idle.Add(i.cpu_idle_pct);
  });
  h.cpu_idle_pct = idle.mean();
  h.unused_ram_pct = unused_ram_pct.mean();
  h.free_disk_gb_per_machine = free_disk_gb.mean();
  h.free_disk_tb_fleet =
      free_disk_gb.mean() * static_cast<double>(trace.machine_count()) / 1024.0;
  // Exact when the trace carries installed-RAM sizes; otherwise fall back
  // to the paper's fleet mean of 340.8 MB/machine (Table 1).
  const double mean_free_mb =
      free_ram_mb.count() > 0 ? free_ram_mb.mean()
                              : h.unused_ram_pct / 100.0 * 340.8;
  h.unused_ram_gb_fleet =
      mean_free_mb * static_cast<double>(trace.machine_count()) / 1024.0;
  for (auto& [ram_mb, acc] : classes) {
    MemoryClassHeadroom cls;
    cls.ram_mb = ram_mb;
    cls.samples = static_cast<std::uint64_t>(acc.pct.count());
    cls.unused_pct = acc.pct.mean();
    cls.free_mb = acc.mb.mean();
    h.by_ram_class.push_back(cls);
  }
  return h;
}

std::string RenderPerLabUsage(const std::vector<LabUsage>& labs) {
  util::AsciiTable table(
      "Per-laboratory usage (10-h forgotten rule applied)");
  table.SetHeader({"Lab", "Machines", "Samples", "Uptime %", "Occupied %",
                   "CPU idle %", "RAM %", "Free disk GB"});
  for (const auto& lab : labs) {
    if (lab.name == "Fleet") table.AddSeparator();
    table.AddRow({lab.name, std::to_string(lab.machines),
                  util::FormatWithThousands(
                      static_cast<std::int64_t>(lab.samples)),
                  util::FormatFixed(lab.uptime_pct, 1),
                  util::FormatFixed(lab.occupied_pct, 1),
                  util::FormatFixed(lab.cpu_idle_pct, 2),
                  util::FormatFixed(lab.ram_load_pct, 1),
                  util::FormatFixed(lab.free_disk_gb, 1)});
  }
  return table.Render();
}

std::string RenderResourceHeadroom(const ResourceHeadroom& h) {
  std::string out = "Fleet resource headroom (paper abstract in parens):\n";
  for (const auto& cls : h.by_ram_class) {
    out += "  " + std::to_string(cls.ram_mb) + " MB machines: " +
           util::FormatFixed(cls.unused_pct, 1) + "% unused (" +
           util::FormatFixed(cls.free_mb, 0) + " MB free on average)\n";
  }
  out += "  CPU idleness: " + util::FormatFixed(h.cpu_idle_pct, 1) +
         "% (97.9%)\n";
  out += "  unused main memory: " + util::FormatFixed(h.unused_ram_pct, 1) +
         "% (42.1%), ~" + util::FormatFixed(h.unused_ram_gb_fleet, 1) +
         " GB across the fleet\n";
  out += "  free disk: " + util::FormatFixed(h.free_disk_gb_per_machine, 1) +
         " GB/machine ('gigabytes per machine'), " +
         util::FormatFixed(h.free_disk_tb_fleet, 2) + " TB fleet-wide\n";
  return out;
}

}  // namespace labmon::analysis
