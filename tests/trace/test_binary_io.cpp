#include "labmon/trace/binary_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include "labmon/core/experiment.hpp"
#include "labmon/util/varint.hpp"

namespace labmon::trace {
namespace {

SampleRecord MakeSample(std::uint32_t machine, std::uint32_t iteration,
                        std::int64_t t, bool session) {
  SampleRecord r;
  r.machine = machine;
  r.iteration = iteration;
  r.t = t;
  r.boot_time = t - 500;
  r.uptime_s = 500;
  r.cpu_idle_s = 497.53;
  r.mem_load_pct = 44;
  r.swap_load_pct = 21;
  r.disk_total_b = 74'500'000'000ULL;
  r.disk_free_b = 60'000'000'123ULL;
  r.smart_power_on_hours = 5123;
  r.smart_power_cycles = 811;
  r.net_sent_b = 112233;
  r.net_recv_b = 445566;
  if (session) {
    r.has_session = true;
    r.user = "a0099";
    r.session_logon = t - 300;
  }
  return r;
}

// The row-wise LMTR1 encoder as it stood before the columnar range codec,
// frozen verbatim as the byte-level reference: LMSG1 segments on disk and
// cross-codec resume depend on SerializeTrace's bytes never changing.
std::string ReferenceSerializeTrace(const TraceStore& store) {
  struct Previous {
    std::int64_t t = 0;
    std::int64_t iteration = 0;
    std::int64_t boot_time = 0;
    std::int64_t uptime_s = 0;
    std::int64_t idle_cs = 0;
    std::int64_t ram_mb = 0;
    std::int64_t mem = 0;
    std::int64_t swap = 0;
    std::int64_t disk_total = 0;
    std::int64_t disk_free = 0;
    std::int64_t poh = 0;
    std::int64_t cycles = 0;
    std::int64_t sent = 0;
    std::int64_t recv = 0;
    std::int64_t logon = 0;
  };
  const auto idle_centiseconds = [](double idle_s) {
    return static_cast<std::int64_t>(idle_s * 100.0 + 0.5);
  };

  std::string out;
  out.append("LMTR1", 5);
  const std::span<const std::string> users = store.users();
  util::PutVarint(out, store.machine_count());
  util::PutVarint(out, store.size());
  util::PutVarint(out, store.iterations().size());
  util::PutVarint(out, users.size());
  for (const std::string& user : users) {
    util::PutVarint(out, user.size());
    out.append(user);
  }

  std::vector<Previous> prev(store.machine_count());
  for (std::size_t i = 0; i < store.size(); ++i) {
    const SampleRecord s = store.Sample(i);
    if (s.machine >= prev.size()) prev.resize(s.machine + 1);
    Previous& p = prev[s.machine];
    util::PutVarint(out, s.machine);
    util::PutSignedVarint(out, static_cast<std::int64_t>(s.iteration) -
                                   p.iteration);
    util::PutSignedVarint(out, s.t - p.t);
    util::PutSignedVarint(out, s.boot_time - p.boot_time);
    util::PutSignedVarint(out, s.uptime_s - p.uptime_s);
    const std::int64_t idle_cs = idle_centiseconds(s.cpu_idle_s);
    util::PutSignedVarint(out, idle_cs - p.idle_cs);
    util::PutSignedVarint(out, s.ram_mb - p.ram_mb);
    util::PutSignedVarint(out, s.mem_load_pct - p.mem);
    util::PutSignedVarint(out, s.swap_load_pct - p.swap);
    util::PutSignedVarint(out,
                          static_cast<std::int64_t>(s.disk_total_b) -
                              p.disk_total);
    util::PutSignedVarint(out,
                          static_cast<std::int64_t>(s.disk_free_b) -
                              p.disk_free);
    util::PutSignedVarint(
        out, static_cast<std::int64_t>(s.smart_power_on_hours) - p.poh);
    util::PutSignedVarint(
        out, static_cast<std::int64_t>(s.smart_power_cycles) - p.cycles);
    util::PutSignedVarint(out,
                          static_cast<std::int64_t>(s.net_sent_b) - p.sent);
    util::PutSignedVarint(out,
                          static_cast<std::int64_t>(s.net_recv_b) - p.recv);
    if (s.has_session) {
      util::PutVarint(out, 1 + store.columns().user_id[i]);
      util::PutSignedVarint(out, s.session_logon - p.logon);
      p.logon = s.session_logon;
    } else {
      util::PutVarint(out, 0);
    }
    p.iteration = s.iteration;
    p.t = s.t;
    p.boot_time = s.boot_time;
    p.uptime_s = s.uptime_s;
    p.idle_cs = idle_cs;
    p.ram_mb = s.ram_mb;
    p.mem = s.mem_load_pct;
    p.swap = s.swap_load_pct;
    p.disk_total = static_cast<std::int64_t>(s.disk_total_b);
    p.disk_free = static_cast<std::int64_t>(s.disk_free_b);
    p.poh = static_cast<std::int64_t>(s.smart_power_on_hours);
    p.cycles = static_cast<std::int64_t>(s.smart_power_cycles);
    p.sent = static_cast<std::int64_t>(s.net_sent_b);
    p.recv = static_cast<std::int64_t>(s.net_recv_b);
  }

  std::int64_t prev_start = 0;
  std::int64_t prev_end = 0;
  for (const auto& it : store.iterations()) {
    util::PutSignedVarint(out, it.start_t - prev_start);
    util::PutSignedVarint(out, it.end_t - prev_end);
    util::PutVarint(out, it.attempts);
    util::PutVarint(out, it.successes);
    prev_start = it.start_t;
    prev_end = it.end_t;
  }
  return out;
}

/// LMTR1 header with the given counts and an empty user table.
std::string Lmtr1Header(std::uint64_t machines, std::uint64_t samples,
                        std::uint64_t iterations) {
  std::string out = "LMTR1";
  util::PutVarint(out, machines);
  util::PutVarint(out, samples);
  util::PutVarint(out, iterations);
  util::PutVarint(out, 0);  // users
  return out;
}

TraceStore SmallStore() {
  TraceStore store(3);
  store.Append(MakeSample(0, 0, 900, false));
  store.Append(MakeSample(2, 0, 905, true));
  store.Append(MakeSample(0, 1, 1800, true));
  store.Append(MakeSample(2, 1, 1805, true));
  store.AppendIteration(IterationInfo{0, 0, 910, 3, 2});
  store.AppendIteration(IterationInfo{1, 900, 1810, 3, 2});
  return store;
}

void ExpectStoresEqual(const TraceStore& a, const TraceStore& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.iterations().size(), b.iterations().size());
  EXPECT_EQ(a.machine_count(), b.machine_count());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a.samples()[i];
    const auto& y = b.samples()[i];
    EXPECT_EQ(x.machine, y.machine);
    EXPECT_EQ(x.iteration, y.iteration);
    EXPECT_EQ(x.t, y.t);
    EXPECT_EQ(x.boot_time, y.boot_time);
    EXPECT_EQ(x.uptime_s, y.uptime_s);
    EXPECT_NEAR(x.cpu_idle_s, y.cpu_idle_s, 0.005);  // centisecond grid
    EXPECT_EQ(x.mem_load_pct, y.mem_load_pct);
    EXPECT_EQ(x.swap_load_pct, y.swap_load_pct);
    EXPECT_EQ(x.disk_total_b, y.disk_total_b);
    EXPECT_EQ(x.disk_free_b, y.disk_free_b);
    EXPECT_EQ(x.smart_power_on_hours, y.smart_power_on_hours);
    EXPECT_EQ(x.smart_power_cycles, y.smart_power_cycles);
    EXPECT_EQ(x.net_sent_b, y.net_sent_b);
    EXPECT_EQ(x.net_recv_b, y.net_recv_b);
    EXPECT_EQ(x.has_session, y.has_session);
    EXPECT_EQ(x.user, y.user);
    if (x.has_session) EXPECT_EQ(x.session_logon, y.session_logon);
  }
  for (std::size_t i = 0; i < a.iterations().size(); ++i) {
    EXPECT_EQ(a.iterations()[i].start_t, b.iterations()[i].start_t);
    EXPECT_EQ(a.iterations()[i].end_t, b.iterations()[i].end_t);
    EXPECT_EQ(a.iterations()[i].attempts, b.iterations()[i].attempts);
    EXPECT_EQ(a.iterations()[i].successes, b.iterations()[i].successes);
  }
}

TEST(BinaryTraceTest, RoundTripSmallStore) {
  const TraceStore store = SmallStore();
  const std::string bytes = SerializeTrace(store);
  EXPECT_EQ(bytes.substr(0, 5), "LMTR1");
  const auto restored = DeserializeTrace(bytes);
  ASSERT_TRUE(restored.ok()) << restored.error();
  ExpectStoresEqual(store, restored.value());
}

TEST(BinaryTraceTest, EmptyStore) {
  TraceStore store(5);
  const auto restored = DeserializeTrace(SerializeTrace(store));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().size(), 0u);
  EXPECT_EQ(restored.value().machine_count(), 5u);
}

TEST(BinaryTraceTest, RejectsBadMagic) {
  EXPECT_FALSE(DeserializeTrace("NOPE!whatever").ok());
  EXPECT_FALSE(DeserializeTrace("").ok());
}

TEST(BinaryTraceTest, RejectsTruncation) {
  const std::string bytes = SerializeTrace(SmallStore());
  for (const std::size_t cut : {bytes.size() - 1, bytes.size() / 2,
                                std::size_t{6}}) {
    EXPECT_FALSE(DeserializeTrace(bytes.substr(0, cut)).ok())
        << "cut at " << cut;
  }
}

TEST(BinaryTraceTest, RoundTripRealExperimentAndBeatsCsv) {
  core::ExperimentConfig config;
  config.campus.days = 2;
  const auto result = core::Experiment::Run(config);

  const std::string bytes = SerializeTrace(result.trace);
  const auto restored = DeserializeTrace(bytes);
  ASSERT_TRUE(restored.ok()) << restored.error();
  ExpectStoresEqual(result.trace, restored.value());

  const std::string csv = result.trace.SamplesToCsv();
  EXPECT_LT(bytes.size() * 3, csv.size())
      << "binary format should be at least 3x smaller than CSV "
      << "(binary=" << bytes.size() << ", csv=" << csv.size() << ")";
}

TEST(BinaryTraceTest, ColumnarEncoderMatchesFrozenRowEncoder) {
  core::ExperimentConfig config;
  config.campus.days = 2;
  const auto result = core::Experiment::Run(config);
  ASSERT_GT(result.trace.size(), 0u);
  EXPECT_EQ(SerializeTrace(result.trace),
            ReferenceSerializeTrace(result.trace));

  EXPECT_EQ(SerializeTrace(TraceStore(5)),
            ReferenceSerializeTrace(TraceStore(5)));
  EXPECT_EQ(SerializeTrace(SmallStore()),
            ReferenceSerializeTrace(SmallStore()));
}

TEST(BinaryTraceTest, DecodedStoreKeepsTheWrittenUserTable) {
  const TraceStore store = SmallStore();
  const auto restored = DeserializeTrace(SerializeTrace(store));
  ASSERT_TRUE(restored.ok()) << restored.error();
  const TraceStore& r = restored.value();
  ASSERT_EQ(r.users().size(), store.users().size());
  for (std::size_t u = 0; u < store.users().size(); ++u) {
    EXPECT_EQ(r.users()[u], store.users()[u]);
  }
  EXPECT_EQ(r.columns().user_id, store.columns().user_id);
  EXPECT_EQ(r.columns().session_logon, store.columns().session_logon);
  for (std::size_t m = 0; m < 3; ++m) {
    const auto a = store.MachineSamples(m);
    const auto b = r.MachineSamples(m);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
}

TEST(BinaryTraceTest, HugeMachineIdIsAnErrorNotAThrow) {
  // One sample on machine 2^60: the old decoder threw std::length_error
  // from resizing its per-machine delta state.
  for (const std::uint64_t header_machines :
       {std::uint64_t{0}, std::uint64_t{3}}) {
    std::string bytes = Lmtr1Header(header_machines, 1, 0);
    util::PutVarint(bytes, std::uint64_t{1} << 60);
    bytes.append(14, '\0');  // zero field deltas
    bytes.push_back('\0');   // no session
    const auto restored = DeserializeTrace(bytes);
    ASSERT_FALSE(restored.ok());
    EXPECT_NE(restored.error().find("machine"), std::string::npos)
        << restored.error();
  }
  // A machine id at the header count is out of range too.
  std::string bytes = Lmtr1Header(3, 1, 0);
  util::PutVarint(bytes, 3);
  bytes.append(15, '\0');
  EXPECT_FALSE(DeserializeTrace(bytes).ok());
}

TEST(BinaryTraceTest, HugeSampleCountIsAnErrorNotAThrow) {
  // A header claiming 2^32 samples over a few bytes: the old decoder threw
  // std::bad_alloc from reserving the columns.
  std::string bytes = Lmtr1Header(3, std::uint64_t{1} << 32, 0);
  bytes.append(64, '\0');
  const auto restored = DeserializeTrace(bytes);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.error().find("implausible"), std::string::npos)
      << restored.error();

  // Huge user and iteration counts are bounded by the bytes left as well.
  std::string users = "LMTR1";
  util::PutVarint(users, 3);
  util::PutVarint(users, 0);
  util::PutVarint(users, 0);
  util::PutVarint(users, std::uint64_t{1} << 40);
  EXPECT_FALSE(DeserializeTrace(users).ok());
  EXPECT_FALSE(
      DeserializeTrace(Lmtr1Header(3, 0, std::uint64_t{1} << 40)).ok());
}

TEST(BinaryTraceTest, NonFiniteIdleSecondsEncodeAsZero) {
  TraceStore store(1);
  SampleRecord r = MakeSample(0, 0, 900, false);
  for (const double idle : {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(), -1e300}) {
    r.cpu_idle_s = idle;
    store.Append(r);
  }
  const auto restored = DeserializeTrace(SerializeTrace(store));
  ASSERT_TRUE(restored.ok()) << restored.error();
  for (const double idle : restored.value().columns().cpu_idle_s) {
    EXPECT_EQ(idle, 0.0);
  }
}

TEST(BinaryTraceTest, FileRoundTrip) {
  const TraceStore store = SmallStore();
  const std::string path = ::testing::TempDir() + "/labmon_trace.lmtr";
  ASSERT_TRUE(WriteTraceFile(path, store).ok());
  const auto restored = ReadTraceFile(path);
  ASSERT_TRUE(restored.ok()) << restored.error();
  ExpectStoresEqual(store, restored.value());
  EXPECT_FALSE(ReadTraceFile("/nonexistent/file.lmtr").ok());
}

}  // namespace
}  // namespace labmon::trace
