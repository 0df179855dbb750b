#include "labmon/analysis/aggregate.hpp"

#include "labmon/obs/prof.hpp"

#include "labmon/stats/running_stats.hpp"
#include "labmon/util/strings.hpp"
#include "labmon/util/table.hpp"

namespace labmon::analysis {

namespace {

struct Accumulator {
  std::uint64_t samples = 0;
  stats::RunningStats cpu_idle;
  stats::RunningStats ram;
  stats::RunningStats swap;
  stats::RunningStats disk_used_gb;
  stats::RunningStats sent_bps;
  stats::RunningStats recv_bps;

  void AddSample(const trace::SampleRecord& s) {
    ++samples;
    ram.Add(s.mem_load_pct);
    swap.Add(s.swap_load_pct);
    disk_used_gb.Add(static_cast<double>(s.DiskUsedBytes()) / 1e9);
  }
  void AddInterval(const trace::SampleInterval& interval) {
    cpu_idle.Add(interval.cpu_idle_pct);
    sent_bps.Add(interval.sent_bps);
    recv_bps.Add(interval.recv_bps);
  }
  void FillColumn(Table2Column& col, std::uint64_t total_attempts) const {
    col.samples = samples;
    col.uptime_pct = total_attempts
                         ? 100.0 * static_cast<double>(samples) /
                               static_cast<double>(total_attempts)
                         : 0.0;
    col.cpu_idle_pct = cpu_idle.mean();
    col.ram_load_pct = ram.mean();
    col.swap_load_pct = swap.mean();
    col.disk_used_gb = disk_used_gb.mean();
    col.sent_bps = sent_bps.mean();
    col.recv_bps = recv_bps.mean();
  }
};

}  // namespace

Table2Result ComputeTable2(const trace::TraceStore& trace,
                           const trace::IntervalOptions& options) {
  obs::Span span("analysis.table2");
  Table2Result result;
  result.total_attempts = trace.TotalAttempts();
  result.iterations = trace.iterations().size();

  Accumulator no_login;
  Accumulator with_login;
  Accumulator both;
  for (const auto& s : trace.samples()) {
    const auto cls = s.Classify(options.forgotten_threshold_s);
    if (s.has_session) ++result.raw_login_samples;
    if (cls == trace::LoginClass::kForgotten) ++result.reclassified_samples;
    // Forgotten samples count as non-occupied (§4.2).
    (cls == trace::LoginClass::kWithLogin ? with_login : no_login)
        .AddSample(s);
    both.AddSample(s);
  }
  trace::ForEachInterval(trace, options, [&](const trace::SampleInterval& i) {
    (i.login_class == trace::LoginClass::kWithLogin ? with_login : no_login)
        .AddInterval(i);
    both.AddInterval(i);
  });

  no_login.FillColumn(result.no_login, result.total_attempts);
  with_login.FillColumn(result.with_login, result.total_attempts);
  both.FillColumn(result.both, result.total_attempts);
  return result;
}

std::string RenderTable2(const Table2Result& result,
                         bool with_paper_reference) {
  using util::FormatFixed;
  using util::FormatWithThousands;

  // Table 2 of the paper, for side-by-side comparison.
  struct PaperColumn {
    double samples, uptime, idle, ram, swap, disk, sent, recv;
  };
  static constexpr PaperColumn kPaperNoLogin{393970, 33.9, 99.7, 54.8,
                                             25.7,   13.6, 255.3, 359.2};
  static constexpr PaperColumn kPaperLogin{189683, 16.3, 94.2,  67.6,
                                           32.8,   13.6, 2601.8, 8662.1};
  static constexpr PaperColumn kPaperBoth{583653, 50.2, 97.9,   58.9,
                                          28.0,   13.6, 1071.9, 3057.9};

  util::AsciiTable table("Table 2: Main results" +
                         std::string(with_paper_reference
                                         ? " — measured vs paper (in parens)"
                                         : ""));
  table.SetHeader({"Metric", "No login", "With login", "Both"});

  const auto cell = [&](double measured, double paper, int precision) {
    std::string text = FormatFixed(measured, precision);
    if (with_paper_reference) {
      text += " (" + FormatFixed(paper, precision) + ")";
    }
    return text;
  };
  const auto count_cell = [&](std::uint64_t measured, double paper) {
    std::string text = FormatWithThousands(static_cast<std::int64_t>(measured));
    if (with_paper_reference) {
      text += " (" +
              FormatWithThousands(static_cast<std::int64_t>(paper)) + ")";
    }
    return text;
  };

  table.AddRow({"Samples",
                count_cell(result.no_login.samples, kPaperNoLogin.samples),
                count_cell(result.with_login.samples, kPaperLogin.samples),
                count_cell(result.both.samples, kPaperBoth.samples)});
  table.AddRow({"Avg uptime (%)",
                cell(result.no_login.uptime_pct, kPaperNoLogin.uptime, 1),
                cell(result.with_login.uptime_pct, kPaperLogin.uptime, 1),
                cell(result.both.uptime_pct, kPaperBoth.uptime, 1)});
  table.AddRow({"Avg CPU idle (%)",
                cell(result.no_login.cpu_idle_pct, kPaperNoLogin.idle, 1),
                cell(result.with_login.cpu_idle_pct, kPaperLogin.idle, 1),
                cell(result.both.cpu_idle_pct, kPaperBoth.idle, 1)});
  table.AddRow({"Avg RAM load (%)",
                cell(result.no_login.ram_load_pct, kPaperNoLogin.ram, 1),
                cell(result.with_login.ram_load_pct, kPaperLogin.ram, 1),
                cell(result.both.ram_load_pct, kPaperBoth.ram, 1)});
  table.AddRow({"Avg SWAP load (%)",
                cell(result.no_login.swap_load_pct, kPaperNoLogin.swap, 1),
                cell(result.with_login.swap_load_pct, kPaperLogin.swap, 1),
                cell(result.both.swap_load_pct, kPaperBoth.swap, 1)});
  table.AddRow({"Avg disk used (GB)",
                cell(result.no_login.disk_used_gb, kPaperNoLogin.disk, 1),
                cell(result.with_login.disk_used_gb, kPaperLogin.disk, 1),
                cell(result.both.disk_used_gb, kPaperBoth.disk, 1)});
  table.AddRow({"Avg sent bytes (bps)",
                cell(result.no_login.sent_bps, kPaperNoLogin.sent, 1),
                cell(result.with_login.sent_bps, kPaperLogin.sent, 1),
                cell(result.both.sent_bps, kPaperBoth.sent, 1)});
  table.AddRow({"Avg recv bytes (bps)",
                cell(result.no_login.recv_bps, kPaperNoLogin.recv, 1),
                cell(result.with_login.recv_bps, kPaperLogin.recv, 1),
                cell(result.both.recv_bps, kPaperBoth.recv, 1)});
  return table.Render();
}

}  // namespace labmon::analysis
