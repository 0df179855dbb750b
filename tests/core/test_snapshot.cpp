// Snapshot layer: chunked-trace + sidecar round trip, fingerprint
// sensitivity, chunk edges, and the corruption fallback of
// Experiment::RunCached.
#include "labmon/core/snapshot.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "labmon/core/experiment.hpp"
#include "labmon/obs/registry.hpp"
#include "labmon/trace/binary_io.hpp"
#include "labmon/util/csv.hpp"
#include "labmon/util/rng.hpp"

namespace labmon::core {
namespace {

ExperimentConfig ShortConfig(int days = 1, std::uint64_t seed = 20050201) {
  ExperimentConfig config;
  config.campus.days = days;
  config.campus.seed = seed;
  return config;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/labmon_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Column-for-column identity of two stores: every column, the user table,
/// the iteration rows and every machine's sample index.
void ExpectTracesIdentical(const trace::TraceStore& a,
                           const trace::TraceStore& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.machine_count(), b.machine_count());
  std::size_t column = 0;
  trace::TraceStore::ForEachColumn([&](auto member) {
    EXPECT_TRUE(a.columns().*member == b.columns().*member)
        << "column " << column << " differs";
    ++column;
  });
  ASSERT_EQ(a.users().size(), b.users().size());
  for (std::size_t u = 0; u < a.users().size(); ++u) {
    EXPECT_EQ(a.users()[u], b.users()[u]);
  }
  ASSERT_EQ(a.iterations().size(), b.iterations().size());
  for (std::size_t i = 0; i < a.iterations().size(); ++i) {
    EXPECT_EQ(a.iterations()[i].iteration, b.iterations()[i].iteration);
    EXPECT_EQ(a.iterations()[i].start_t, b.iterations()[i].start_t);
    EXPECT_EQ(a.iterations()[i].end_t, b.iterations()[i].end_t);
    EXPECT_EQ(a.iterations()[i].attempts, b.iterations()[i].attempts);
    EXPECT_EQ(a.iterations()[i].successes, b.iterations()[i].successes);
  }
  EXPECT_EQ(a.ResponsesPerMachine(), b.ResponsesPerMachine());
  for (std::size_t m = 0; m < a.machine_count(); ++m) {
    const auto x = a.MachineSamples(m);
    const auto y = b.MachineSamples(m);
    EXPECT_TRUE(std::equal(x.begin(), x.end(), y.begin(), y.end()))
        << "machine " << m;
  }
}

/// A result whose trace holds exactly `samples` synthetic rows over 37
/// machines (values on the probe's centisecond grid, ~40 % in sessions).
ExperimentResult SyntheticResult(std::size_t samples) {
  constexpr std::uint32_t kMachines = 37;
  ExperimentResult result;
  result.days = 3;
  result.perf_index.assign(kMachines, 1.5);
  result.trace = trace::TraceStore(kMachines);
  util::Rng rng(samples + 1);
  for (std::size_t i = 0; i < samples; ++i) {
    trace::SampleRecord r;
    r.machine = static_cast<std::uint32_t>(i % kMachines);
    r.iteration = static_cast<std::uint32_t>(i / kMachines);
    r.t = 900 * static_cast<std::int64_t>(r.iteration) + r.machine;
    r.boot_time = r.t - rng.UniformInt(0, 86400);
    r.uptime_s = r.t - r.boot_time;
    r.cpu_idle_s = static_cast<double>(rng.UniformInt(0, 8'640'000)) / 100.0;
    r.ram_mb = 512;
    r.mem_load_pct = static_cast<std::uint8_t>(rng.UniformInt(0, 100));
    r.swap_load_pct = static_cast<std::uint8_t>(rng.UniformInt(0, 100));
    r.disk_total_b = 80'000'000'000ULL;
    r.disk_free_b = 40'000'000'000ULL +
                    static_cast<std::uint64_t>(rng.UniformInt(0, 1 << 30));
    r.smart_power_on_hours = 1000 + r.iteration / 4;
    r.smart_power_cycles = 300 + r.machine;
    r.net_sent_b = 1000 * static_cast<std::uint64_t>(i);
    r.net_recv_b = 3000 * static_cast<std::uint64_t>(i);
    if (rng.Bernoulli(0.4)) {
      r.has_session = true;
      r.user = "u" + std::to_string(rng.UniformInt(0, 50));
      r.session_logon = r.t - rng.UniformInt(0, 40000);
    }
    result.trace.Append(r);
  }
  const std::size_t iterations = (samples + kMachines - 1) / kMachines;
  for (std::size_t it = 0; it < iterations; ++it) {
    const auto start = static_cast<std::int64_t>(900 * it);
    result.trace.AppendIteration(
        trace::IterationInfo{it, start, start + 30, kMachines, kMachines});
  }
  return result;
}

void ExpectResultsEqual(const ExperimentResult& a, const ExperimentResult& b) {
  // TraceStore has no operator==; LMTR1 round-trips exactly, so identical
  // serialisations mean identical stores.
  EXPECT_EQ(trace::SerializeTrace(a.trace), trace::SerializeTrace(b.trace));
  EXPECT_EQ(a.days, b.days);
  EXPECT_EQ(a.parse_failures, b.parse_failures);
  EXPECT_EQ(a.crosscheck_mismatches, b.crosscheck_mismatches);

  EXPECT_EQ(a.run_stats.iterations, b.run_stats.iterations);
  EXPECT_EQ(a.run_stats.attempts, b.run_stats.attempts);
  EXPECT_EQ(a.run_stats.successes, b.run_stats.successes);
  EXPECT_EQ(a.run_stats.timeouts, b.run_stats.timeouts);
  EXPECT_EQ(a.run_stats.errors, b.run_stats.errors);
  EXPECT_EQ(a.run_stats.total_span_s, b.run_stats.total_span_s);
  EXPECT_EQ(a.run_stats.max_iteration_s, b.run_stats.max_iteration_s);
  EXPECT_EQ(a.run_stats.mean_iteration_s, b.run_stats.mean_iteration_s);

  EXPECT_EQ(a.ground_truth.boots, b.ground_truth.boots);
  EXPECT_EQ(a.ground_truth.shutdowns, b.ground_truth.shutdowns);
  EXPECT_EQ(a.ground_truth.reboots, b.ground_truth.reboots);
  EXPECT_EQ(a.ground_truth.short_cycles, b.ground_truth.short_cycles);
  EXPECT_EQ(a.ground_truth.class_logins, b.ground_truth.class_logins);
  EXPECT_EQ(a.ground_truth.walkin_logins, b.ground_truth.walkin_logins);
  EXPECT_EQ(a.ground_truth.forgotten_sessions, b.ground_truth.forgotten_sessions);
  EXPECT_EQ(a.ground_truth.lost_arrivals, b.ground_truth.lost_arrivals);
  EXPECT_EQ(a.ground_truth.sweep_shutdowns, b.ground_truth.sweep_shutdowns);

  EXPECT_EQ(a.hardware.ram_gb, b.hardware.ram_gb);
  EXPECT_EQ(a.hardware.disk_tb, b.hardware.disk_tb);
  EXPECT_EQ(a.hardware.sum_int_index, b.hardware.sum_int_index);
  EXPECT_EQ(a.hardware.sum_fp_index, b.hardware.sum_fp_index);

  EXPECT_EQ(a.perf_index, b.perf_index);
  ASSERT_EQ(a.labs.size(), b.labs.size());
  for (std::size_t i = 0; i < a.labs.size(); ++i) {
    EXPECT_EQ(a.labs[i].name, b.labs[i].name);
    EXPECT_EQ(a.labs[i].machine_count, b.labs[i].machine_count);
    EXPECT_EQ(a.labs[i].cpu_model, b.labs[i].cpu_model);
    EXPECT_EQ(a.labs[i].cpu_ghz, b.labs[i].cpu_ghz);
    EXPECT_EQ(a.labs[i].ram_mb, b.labs[i].ram_mb);
    EXPECT_EQ(a.labs[i].disk_gb, b.labs[i].disk_gb);
    EXPECT_EQ(a.labs[i].int_index, b.labs[i].int_index);
    EXPECT_EQ(a.labs[i].fp_index, b.labs[i].fp_index);
  }
}

TEST(SnapshotTest, SerializeDeserializeRoundTripsBitIdentically) {
  const auto config = ShortConfig();
  const auto result = Experiment::Run(config);
  const auto fingerprint = FingerprintConfig(config);

  const std::string bytes = SerializeExperimentResult(result, fingerprint);
  const auto restored = DeserializeExperimentResult(bytes, fingerprint);
  ASSERT_TRUE(restored.ok()) << restored.error();
  ExpectResultsEqual(result, restored.value());
}

TEST(SnapshotTest, ChunkEdgesRoundTripColumnForColumn) {
  // 0 samples (no chunk), exactly one full chunk, one full chunk plus one.
  for (const std::size_t samples :
       {std::size_t{0}, kSnapshotChunkSamples, kSnapshotChunkSamples + 1}) {
    const ExperimentResult result = SyntheticResult(samples);
    ASSERT_EQ(result.trace.size(), samples);
    const std::string bytes = SerializeExperimentResult(result, 42);
    const auto restored = DeserializeExperimentResult(bytes, 42);
    ASSERT_TRUE(restored.ok()) << restored.error() << " (" << samples << ")";
    ExpectResultsEqual(result, restored.value());
    ExpectTracesIdentical(result.trace, restored.value().trace);
    if (samples == 0) continue;

    // The file ends with the last chunk's body; its checksum guards it.
    std::string flipped = bytes;
    flipped.back() = static_cast<char>(flipped.back() ^ 0x01);
    const auto corrupt = DeserializeExperimentResult(flipped, 42);
    ASSERT_FALSE(corrupt.ok());
    const std::string last_chunk =
        "chunk " + std::to_string((samples - 1) / kSnapshotChunkSamples);
    EXPECT_NE(corrupt.error().find(last_chunk + " checksum"), std::string::npos)
        << corrupt.error();
  }
}

TEST(SnapshotTest, LoadedStoreEqualsTheRunsStoreColumnForColumn) {
  const auto config = ShortConfig();
  const auto result = Experiment::Run(config);
  const auto fingerprint = FingerprintConfig(config);
  const SnapshotCache cache(FreshDir("snapshot_columns"));
  ASSERT_TRUE(cache.Store(fingerprint, result).ok());
  const auto loaded = cache.Load(fingerprint);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  ExpectTracesIdentical(result.trace, loaded.value().trace);
}

TEST(SnapshotTest, FileBytesDoNotDependOnTheWritersShardCount) {
  auto one = ShortConfig();
  one.shards = 1;
  auto eight = ShortConfig();
  eight.shards = 8;
  const auto fingerprint = FingerprintConfig(one);
  ASSERT_EQ(fingerprint, FingerprintConfig(eight));

  const SnapshotCache cache_one(FreshDir("snapshot_shards1"));
  const SnapshotCache cache_eight(FreshDir("snapshot_shards8"));
  ASSERT_TRUE(cache_one.Store(fingerprint, Experiment::Run(one)).ok());
  ASSERT_TRUE(cache_eight.Store(fingerprint, Experiment::Run(eight)).ok());
  const auto bytes_one = util::ReadTextFile(cache_one.PathFor(fingerprint));
  const auto bytes_eight = util::ReadTextFile(cache_eight.PathFor(fingerprint));
  ASSERT_TRUE(bytes_one.ok());
  ASSERT_TRUE(bytes_eight.ok());
  EXPECT_TRUE(bytes_one.value() == bytes_eight.value());
}

TEST(SnapshotTest, VersionTwoHeaderIsRejectedAsStale) {
  static_assert(kSnapshotFormatVersion == 3);
  const auto config = ShortConfig();
  const auto fingerprint = FingerprintConfig(config);
  std::string bytes =
      SerializeExperimentResult(Experiment::Run(config), fingerprint);
  ASSERT_EQ(bytes[5], 3);  // one-byte version varint after "LMSS1"
  bytes[5] = 2;
  const auto stale = DeserializeExperimentResult(bytes, fingerprint);
  ASSERT_FALSE(stale.ok());
  EXPECT_NE(stale.error().find("stale snapshot format (version 2"),
            std::string::npos)
      << stale.error();
}

TEST(SnapshotTest, FingerprintCoversBehaviourAffectingFields) {
  const auto base = FingerprintConfig(ShortConfig());
  EXPECT_EQ(base, FingerprintConfig(ShortConfig()));
  EXPECT_NE(base, FingerprintConfig(ShortConfig(2)));
  EXPECT_NE(base, FingerprintConfig(ShortConfig(1, 7)));

  auto policy = ShortConfig();
  policy.collector.exec_policy.transient_failure_prob = 0.5;
  EXPECT_NE(base, FingerprintConfig(policy));

  auto campus = ShortConfig();
  campus.campus.power.sweeps_enabled = false;
  EXPECT_NE(base, FingerprintConfig(campus));

  // The structured fast path is output-invariant and excluded on purpose.
  auto fast = ShortConfig();
  fast.structured_fast_path = !fast.structured_fast_path;
  EXPECT_EQ(base, FingerprintConfig(fast));
}

TEST(SnapshotTest, FingerprintCoversRetryPolicyAndFaultPlan) {
  const auto base = FingerprintConfig(ShortConfig());

  auto retry = ShortConfig();
  retry.collector.retry.max_attempts = 3;
  EXPECT_NE(base, FingerprintConfig(retry));

  auto budget = ShortConfig();
  budget.collector.retry.iteration_budget_s = 120.0;
  EXPECT_NE(base, FingerprintConfig(budget));

  // An active fault plan keys a different snapshot: faulted and clean runs
  // must never share a cache entry.
  auto faulted = ShortConfig();
  faulted.fault_plan.enabled = true;
  faulted.fault_plan.stochastic.transient_error_prob = 0.01;
  EXPECT_NE(base, FingerprintConfig(faulted));

  auto seeded = faulted;
  seeded.fault_plan.seed ^= 1;
  EXPECT_NE(FingerprintConfig(faulted), FingerprintConfig(seeded));

  auto scripted = ShortConfig();
  scripted.fault_plan.enabled = true;
  scripted.fault_plan.outages.push_back({"L03", 100, 200});
  EXPECT_NE(base, FingerprintConfig(scripted));
  auto other_lab = scripted;
  other_lab.fault_plan.outages[0].lab = "L04";
  EXPECT_NE(FingerprintConfig(scripted), FingerprintConfig(other_lab));
}

TEST(SnapshotTest, SingleBitFlipsAnywhereAreDetected) {
  const auto config = ShortConfig();
  const auto result = Experiment::Run(config);
  const auto fingerprint = FingerprintConfig(config);
  const std::string bytes = SerializeExperimentResult(result, fingerprint);

  // Deterministically fuzzed offsets plus a coarse full-file grid: a
  // corrupted snapshot must never deserialize — a wrong result replayed
  // silently would poison every downstream analysis.
  util::Rng rng(0x5eed);
  std::vector<std::size_t> offsets;
  for (int i = 0; i < 64; ++i) {
    offsets.push_back(static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(bytes.size()) - 1)));
  }
  for (std::size_t pos = 0; pos < bytes.size();
       pos += 1 + bytes.size() / 97) {
    offsets.push_back(pos);
  }
  for (const std::size_t pos : offsets) {
    std::string flipped = bytes;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x20);
    ASSERT_NE(flipped, bytes);
    EXPECT_FALSE(DeserializeExperimentResult(flipped, fingerprint).ok())
        << "bit flip at offset " << pos << " went undetected";
  }
}

TEST(SnapshotTest, DeserializeRejectsForeignFingerprint) {
  const auto config = ShortConfig();
  const auto result = Experiment::Run(config);
  const auto fingerprint = FingerprintConfig(config);
  const std::string bytes = SerializeExperimentResult(result, fingerprint);
  EXPECT_FALSE(DeserializeExperimentResult(bytes, fingerprint + 1).ok());
}

TEST(SnapshotTest, DeserializeRejectsBadMagicAndTruncation) {
  const auto config = ShortConfig();
  const auto result = Experiment::Run(config);
  const auto fingerprint = FingerprintConfig(config);
  const std::string bytes = SerializeExperimentResult(result, fingerprint);

  EXPECT_FALSE(DeserializeExperimentResult("", fingerprint).ok());
  EXPECT_FALSE(DeserializeExperimentResult("LMTR1" + bytes.substr(5),
                                           fingerprint)
                   .ok());
  // Every truncation point along a sampled prefix grid must fail cleanly.
  for (std::size_t len = 0; len < bytes.size();
       len += 1 + bytes.size() / 64) {
    EXPECT_FALSE(
        DeserializeExperimentResult(bytes.substr(0, len), fingerprint).ok())
        << "prefix of " << len << " bytes parsed";
  }
  // Trailing garbage is corruption too.
  EXPECT_FALSE(DeserializeExperimentResult(bytes + "x", fingerprint).ok());
}

TEST(SnapshotCacheTest, StoreThenLoadReplays) {
  const auto config = ShortConfig();
  const auto result = Experiment::Run(config);
  const auto fingerprint = FingerprintConfig(config);
  const SnapshotCache cache(FreshDir("snapshot_store"));

  EXPECT_FALSE(cache.Contains(fingerprint));
  const auto stored = cache.Store(fingerprint, result);
  ASSERT_TRUE(stored.ok()) << stored.error();
  EXPECT_TRUE(cache.Contains(fingerprint));
  // No stray temp file left behind after the atomic rename.
  EXPECT_FALSE(std::filesystem::exists(cache.PathFor(fingerprint) + ".tmp"));

  const auto loaded = cache.Load(fingerprint);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  ExpectResultsEqual(result, loaded.value());
}

TEST(RunCachedTest, EmptyDirDegradesToPlainRun) {
  const auto config = ShortConfig();
  ExpectResultsEqual(Experiment::Run(config),
                     Experiment::RunCached(config, ""));
}

TEST(RunCachedTest, SecondRunReplaysTheSnapshot) {
  const auto config = ShortConfig();
  const std::string dir = FreshDir("snapshot_warm");

  const auto first = Experiment::RunCached(config, dir);
  const SnapshotCache cache(dir);
  ASSERT_TRUE(cache.Contains(FingerprintConfig(config)));

  const auto second = Experiment::RunCached(config, dir);
  ExpectResultsEqual(first, second);

  // A different config misses the first snapshot and writes its own file.
  const auto other = Experiment::RunCached(ShortConfig(1, 7), dir);
  EXPECT_TRUE(cache.Contains(FingerprintConfig(ShortConfig(1, 7))));
  EXPECT_NE(trace::SerializeTrace(other.trace),
            trace::SerializeTrace(first.trace));
}

TEST(RunCachedTest, CorruptSnapshotFallsBackToSimulationAndHeals) {
  const auto config = ShortConfig();
  const std::string dir = FreshDir("snapshot_corrupt");

  const auto first = Experiment::RunCached(config, dir);
  const SnapshotCache cache(dir);
  const auto fingerprint = FingerprintConfig(config);
  const std::string path = cache.PathFor(fingerprint);

  // Truncate the file to half: Load must fail, RunCached must re-simulate.
  const auto bytes = util::ReadTextFile(path);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(
      util::WriteTextFile(path, bytes.value().substr(0, bytes.value().size() / 2))
          .ok());
  EXPECT_FALSE(cache.Load(fingerprint).ok());

  const auto recovered = Experiment::RunCached(config, dir);
  ExpectResultsEqual(first, recovered);

  // ...and the snapshot was atomically rewritten: loads cleanly again.
  const auto healed = cache.Load(fingerprint);
  ASSERT_TRUE(healed.ok()) << healed.error();
  ExpectResultsEqual(first, healed.value());
}

TEST(RunCachedTest, BitFlippedSnapshotCountsCorruptAndHeals) {
  const auto config = ShortConfig();
  const std::string dir = FreshDir("snapshot_bitflip");

  const auto first = Experiment::RunCached(config, dir);
  const SnapshotCache cache(dir);
  const auto fingerprint = FingerprintConfig(config);
  const std::string path = cache.PathFor(fingerprint);

  // Flip one payload byte in the stored file: the header still parses, only
  // the checksum can catch it.
  auto bytes = util::ReadTextFile(path);
  ASSERT_TRUE(bytes.ok());
  std::string mangled = bytes.value();
  const std::size_t pos = mangled.size() / 2;
  mangled[pos] = static_cast<char>(mangled[pos] ^ 0x01);
  ASSERT_TRUE(util::WriteTextFile(path, mangled).ok());

  const auto load = cache.Load(fingerprint);
  ASSERT_FALSE(load.ok());
  EXPECT_NE(load.error().find("checksum"), std::string::npos) << load.error();

  auto& corrupt_counter = obs::DefaultRegistry().GetCounter(
      "labmon_snapshot_loads_total",
      "Snapshot lookup outcomes (hit / miss / corrupt).",
      {{"result", "corrupt"}});
  const auto corrupt_before = corrupt_counter.value();

  const auto recovered = Experiment::RunCached(config, dir);
  ExpectResultsEqual(first, recovered);
  EXPECT_EQ(corrupt_counter.value(), corrupt_before + 1);

  // The rewrite healed the file in place.
  const auto healed = cache.Load(fingerprint);
  ASSERT_TRUE(healed.ok()) << healed.error();
  ExpectResultsEqual(first, healed.value());
}

}  // namespace
}  // namespace labmon::core
