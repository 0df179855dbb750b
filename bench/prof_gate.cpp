// prof_gate — CI comparator over BENCH_prof.json.
//
// Two modes:
//
//   prof_gate BENCH_prof.json
//     Invariant gate. Checks the run against fixed budgets:
//       * profiling never perturbs output (hash_prof_invariant)
//       * trace bit-identical across shard counts (bit_identical)
//       * profiler overhead <= 2% (or <= 50 ms absolute on tiny runs,
//         where one scheduler hiccup dwarfs the relative budget)
//       * load-balance speedup bound at 4 shards >= 2.5 (the partition
//         quality number; hardware-independent)
//       * measured 4-shard speedup >= a hardware-aware floor:
//           max(0.75, min(0.85 * bound, 0.45 * hw_threads))
//         On a 4-core CI runner with bound ~3.5 this demands ~1.8x; on a
//         1-core container (where parallel speedup is physically
//         impossible) it degrades to "no worse than 25% slower than
//         serial". The formula is the gate's contract: better hardware is
//         held to a proportionally higher bar.
//       * the profile is non-trivial (simulate+probe self time > 0)
//       * the streaming engine's stream hash matches the materialised
//         trace at every shard count (pipeline_bit_identical)
//       * streaming serial fraction <= 0.10 (or <= 150 ms absolute on
//         tiny runs): the collect/merge/fold overlap must cover the run
//
//   prof_gate BASELINE.json CURRENT.json
//     Regression diff (the CI mode; the baseline is committed at
//     bench/baselines/BENCH_prof.json). Runs the invariant gate on
//     CURRENT, then compares against BASELINE with tolerance bands: total
//     profiled wall <= 1.25x + 100 ms, per-phase self time <= 1.35x +
//     50 ms, 4-shard speedup no more than 0.25 below baseline, streaming
//     serial fraction within 0.05 of baseline. Bands are wide because
//     bench containers are noisy; the gate exists to catch step
//     regressions (a new O(n^2) pass, a serialized merge), not 3% jitter.
//
// Exit code 0 = all checks pass; 1 = at least one FAIL (each printed).
#include <algorithm>
#include <iostream>
#include <string>

#include "labmon/obs/prof.hpp"
#include "labmon/util/csv.hpp"
#include "labmon/util/json.hpp"
#include "labmon/util/strings.hpp"

namespace {

using namespace labmon;

int g_failures = 0;

void Check(bool ok, const std::string& what, const std::string& detail) {
  std::cout << (ok ? "PASS" : "FAIL") << ": " << what << " (" << detail
            << ")\n";
  if (!ok) ++g_failures;
}

/// The hardware-aware 4-shard speedup floor (see file comment).
double RequiredSpeedup(double bound, double hw_threads) {
  return std::max(0.75, std::min(0.85 * bound, 0.45 * hw_threads));
}

util::json::Value Load(const std::string& path) {
  const auto text = util::ReadTextFile(path);
  if (!text.ok()) {
    std::cerr << "cannot read " << path << ": " << text.error() << "\n";
    std::exit(2);
  }
  auto doc = util::json::Parse(text.value());
  if (!doc.ok()) {
    std::cerr << "cannot parse " << path << ": " << doc.error() << "\n";
    std::exit(2);
  }
  return doc.value();
}

double PhaseSelf(const util::json::Value& doc, const char* phase) {
  return doc["phases_4"][phase].Number("self_s", 0.0);
}

void InvariantGate(const util::json::Value& doc) {
  Check(doc["hash_prof_invariant"].AsBool(false),
        "profiling leaves the trace hash unchanged",
        "hash_prof_invariant");
  Check(doc["bit_identical"].AsBool(false),
        "trace bit-identical across shard counts", "bit_identical");

  const double overhead_pct = doc.Number("overhead_pct", 1e9);
  const double off_wall = doc.Number("overhead_off_wall_s", 0.0);
  const double on_wall = doc.Number("overhead_on_wall_s", 1e9);
  const double abs_overhead_s = on_wall - off_wall;
  Check(overhead_pct <= 2.0 || abs_overhead_s <= 0.05,
        "profiler overhead within 2% budget",
        util::FormatFixed(overhead_pct, 2) + "% / " +
            util::FormatFixed(abs_overhead_s * 1000.0, 1) + " ms");

  const double bound = doc.Number("load_balance_bound_4", 0.0);
  Check(bound >= 2.5, "4-shard load-balance bound >= 2.5",
        util::FormatFixed(bound, 2) + "x");

  const double hw = doc.Number("hw_threads", 1.0);
  const double speedup = doc.Number("speedup_4", 0.0);
  const double required = RequiredSpeedup(bound, hw);
  Check(speedup >= required,
        "4-shard measured speedup meets hardware-aware floor",
        util::FormatFixed(speedup, 2) + "x >= " +
            util::FormatFixed(required, 2) + "x on " +
            util::FormatFixed(hw, 0) + " hw thread(s)");

  const double busy = PhaseSelf(doc, "simulate") + PhaseSelf(doc, "probe");
  Check(busy > 0.0, "profile is non-trivial",
        "simulate+probe self " + util::FormatFixed(busy, 3) + " s");

  Check(doc["pipeline_bit_identical"].AsBool(false),
        "streaming-engine stream hash matches materialised trace",
        "pipeline_bit_identical");

  // The streaming engine's contract: at most 10% of the run's wall time
  // may fall outside the overlapped collect/merge/fold region. On tiny
  // runs (snappy containers, small LABMON_SCALE_DAYS) the serial prologue
  // is a fixed cost and the fraction is noise, so an absolute escape of
  // 150 ms applies.
  const double serial_fraction = doc.Number("pipeline_serial_fraction_8", 1e9);
  const double serial_s = doc.Number("pipeline_serial_s_8", 1e9);
  Check(serial_fraction <= 0.10 || serial_s <= 0.15,
        "streaming serial fraction within 0.10 budget",
        util::FormatFixed(serial_fraction, 3) + " / " +
            util::FormatFixed(serial_s * 1000.0, 1) + " ms");
}

void DiffGate(const util::json::Value& base, const util::json::Value& cur) {
  const double base_wall = base.Number("overhead_on_wall_s", 0.0);
  const double cur_wall = cur.Number("overhead_on_wall_s", 1e9);
  Check(cur_wall <= base_wall * 1.25 + 0.1,
        "profiled wall within 1.25x of baseline",
        util::FormatFixed(cur_wall, 3) + " s vs " +
            util::FormatFixed(base_wall, 3) + " s");

  for (std::size_t p = 0; p < obs::prof::kPhaseCount; ++p) {
    const char* name =
        obs::prof::PhaseName(static_cast<obs::prof::Phase>(p));
    const double base_s = PhaseSelf(base, name);
    const double cur_s = PhaseSelf(cur, name);
    Check(cur_s <= base_s * 1.35 + 0.05,
          std::string("phase '") + name + "' self time within band",
          util::FormatFixed(cur_s, 3) + " s vs " +
              util::FormatFixed(base_s, 3) + " s");
  }

  const double base_speedup = base.Number("speedup_4", 0.0);
  const double cur_speedup = cur.Number("speedup_4", 0.0);
  Check(cur_speedup >= base_speedup - 0.25,
        "4-shard speedup no more than 0.25 below baseline",
        util::FormatFixed(cur_speedup, 2) + "x vs " +
            util::FormatFixed(base_speedup, 2) + "x");

  // Serial fraction regressions mean something un-overlapped crept into
  // the streaming engine (a new barrier, a serialized assembly step). The
  // same absolute escape as the invariant gate applies.
  const double base_serial = base.Number("pipeline_serial_fraction_8", 0.0);
  const double cur_serial = cur.Number("pipeline_serial_fraction_8", 1e9);
  const double cur_serial_s = cur.Number("pipeline_serial_s_8", 1e9);
  Check(cur_serial <= base_serial + 0.05 || cur_serial_s <= 0.15,
        "streaming serial fraction within 0.05 of baseline",
        util::FormatFixed(cur_serial, 3) + " vs " +
            util::FormatFixed(base_serial, 3));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2 && argc != 3) {
    std::cerr << "usage: prof_gate BENCH_prof.json\n"
              << "       prof_gate BASELINE.json CURRENT.json\n";
    return 2;
  }

  if (argc == 2) {
    std::cout << "prof_gate: invariant mode (" << argv[1] << ")\n";
    InvariantGate(Load(argv[1]));
  } else {
    std::cout << "prof_gate: diff mode (" << argv[1] << " -> " << argv[2]
              << ")\n";
    const auto base = Load(argv[1]);
    const auto cur = Load(argv[2]);
    InvariantGate(cur);
    DiffGate(base, cur);
  }

  if (g_failures > 0) {
    std::cerr << g_failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "all checks passed\n";
  return 0;
}
