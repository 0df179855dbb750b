// Reproduces Table 2 — "Main results": the headline resource-usage table.
#include "bench_common.hpp"

#include "labmon/util/strings.hpp"

int main() {
  using namespace labmon;
  bench::Banner("Table 2: main results (No login / With login / Both)");
  const auto result = bench::RunExperiment(bench::BenchConfig());
  const core::Report report(result);
  std::cout << report.Table2() << '\n';
  const auto& t2 = report.table2();
  std::cout << "raw login samples (pre 10-h rule): "
            << util::FormatWithThousands(
                   static_cast<std::int64_t>(t2.raw_login_samples))
            << " (paper: 277,513)\n";
  std::cout << "samples reclassified by the 10-h rule: "
            << util::FormatWithThousands(
                   static_cast<std::int64_t>(t2.reclassified_samples))
            << " (paper: 87,830)\n";
  std::cout << "iterations: " << result.run_stats.iterations
            << " (paper: 6,883), response rate "
            << util::FormatFixed(100.0 * result.run_stats.ResponseRate(), 1)
            << "% (paper: 50.2%)\n";
  return 0;
}
