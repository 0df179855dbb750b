#include "labmon/obs/exporters.hpp"

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "labmon/obs/jsonl.hpp"
#include "labmon/obs/prof.hpp"
#include "labmon/obs/registry.hpp"

namespace labmon::obs {
namespace {

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

TEST(ObsExportersTest, PrometheusGoldenCounterAndGauge) {
  Registry registry;
  registry
      .GetCounter("labmon_probe_attempts_total", "Probe attempts",
                  {{"lab", "e1"}})
      .Increment(42);
  registry
      .GetCounter("labmon_probe_attempts_total", "", {{"lab", "e2"}})
      .Increment(7);
  registry.GetGauge("labmon_overrun_seconds", "Current overrun").Set(12.5);

  std::ostringstream out;
  WritePrometheus(registry, out);
  const std::string expected =
      "# HELP labmon_overrun_seconds Current overrun\n"
      "# TYPE labmon_overrun_seconds gauge\n"
      "labmon_overrun_seconds 12.5\n"
      "# HELP labmon_probe_attempts_total Probe attempts\n"
      "# TYPE labmon_probe_attempts_total counter\n"
      "labmon_probe_attempts_total{lab=\"e1\"} 42\n"
      "labmon_probe_attempts_total{lab=\"e2\"} 7\n";
  EXPECT_EQ(out.str(), expected);
}

TEST(ObsExportersTest, PrometheusGoldenHistogram) {
  Registry registry;
  Histogram& h = registry.GetHistogram("labmon_latency_seconds", {1.0, 4.0},
                                       "Attempt latency");
  h.Observe(0.5);
  h.Observe(0.5);
  h.Observe(2.0);
  h.Observe(9.0);

  std::ostringstream out;
  WritePrometheus(registry, out);
  const std::string expected =
      "# HELP labmon_latency_seconds Attempt latency\n"
      "# TYPE labmon_latency_seconds histogram\n"
      "labmon_latency_seconds_bucket{le=\"1\"} 2\n"
      "labmon_latency_seconds_bucket{le=\"4\"} 3\n"
      "labmon_latency_seconds_bucket{le=\"+Inf\"} 4\n"
      "labmon_latency_seconds_sum 12\n"
      "labmon_latency_seconds_count 4\n";
  EXPECT_EQ(out.str(), expected);
}

TEST(ObsExportersTest, PrometheusEscapesLabelValues) {
  Registry registry;
  registry
      .GetCounter("c_total", "", {{"path", "a\\b\"c\nd"}})
      .Increment();
  std::ostringstream out;
  WritePrometheus(registry, out);
  EXPECT_NE(out.str().find("c_total{path=\"a\\\\b\\\"c\\nd\"} 1"),
            std::string::npos)
      << out.str();
}

/// A report holding one named span and one shard-3 simulate record, as
/// prof::Drain returns them.
prof::Report SampleReport(const char* span_name, util::SimTime sim_start,
                          util::SimTime sim_end) {
  prof::Report report;
  report.records.push_back({.start_ns = 5000,
                            .dur_ns = 2000,
                            .self_ns = 2000,
                            .name = span_name,
                            .sim_start = sim_start,
                            .sim_end = sim_end,
                            .thread = 1});
  report.records.push_back({.start_ns = 6000,
                            .dur_ns = 500,
                            .self_ns = 500,
                            .shard = 3,
                            .thread = 1,
                            .phase = prof::Phase::kSimulate,
                            .depth = 1});
  return report;
}

TEST(ObsExportersTest, ChromeTraceGoldenStructure) {
  std::ostringstream out;
  WriteChromeTrace(SampleReport("coordinator.iteration", 900, 2000), out);
  const std::string json = out.str();

  // Structural golden snippets rather than byte equality: wall-clock
  // ts/dur values vary run to run.
  EXPECT_NE(json.find("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"coordinator.iteration\",\"cat\":\"labmon\","
                      "\"ph\":\"X\""),
            std::string::npos);
  // Sim-timeline mirror: pid 2, ts = 900 s -> 900000000 us, dur 1100 s.
  EXPECT_NE(json.find("\"ts\":900000000,\"dur\":1100000000,\"pid\":2"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"sim_start\":900,\"sim_end\":2000"),
            std::string::npos);
  // Wall timeline in microseconds; phase records take their prof name.
  EXPECT_NE(json.find("\"ts\":5,\"dur\":2,\"pid\":1,\"tid\":1"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"prof.simulate/shard3\""),
            std::string::npos);
  // Only the span has a sim range, so only it is mirrored on pid 2.
  std::size_t events = 0;
  for (auto at = json.find("\"ph\":\"X\""); at != std::string::npos;
       at = json.find("\"ph\":\"X\"", at + 1)) {
    ++events;
  }
  EXPECT_EQ(events, 3u);
  // Process-name metadata for both timelines.
  EXPECT_NE(json.find("\"name\":\"labmon wall clock\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"labmon sim clock\""), std::string::npos);
  // Parseable: braces and brackets balance.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(ObsExportersTest, JsonlWriterGolden) {
  std::ostringstream out;
  JsonlWriter writer(out);
  writer.Begin("log")
      .Field("level", "warn")
      .Field("message", "say \"hi\"\n")
      .Field("count", std::uint64_t{3})
      .Field("ratio", 0.5);
  writer.End();
  EXPECT_EQ(out.str(),
            "{\"type\":\"log\",\"level\":\"warn\","
            "\"message\":\"say \\\"hi\\\"\\n\",\"count\":3,\"ratio\":0.5}\n");
  EXPECT_EQ(writer.events(), 1u);
}

TEST(ObsExportersTest, SpansAndMetricsRoundTripThroughJsonl) {
  const prof::Report report = SampleReport("analysis.table2", 0, 10);
  Registry registry;
  registry.GetCounter("c_total", "", {{"lab", "e1"}}).Increment(9);

  std::ostringstream out;
  JsonlWriter writer(out);
  WriteSpansJsonl(report, writer);
  WriteMetricsJsonl(registry, writer);

  const auto lines = Lines(out.str());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"type\":\"span\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"name\":\"analysis.table2\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"start_us\":5,\"duration_us\":2"),
            std::string::npos)
      << lines[0];
  EXPECT_NE(lines[0].find("\"sim_start\":0"), std::string::npos);
  EXPECT_NE(lines[1].find("\"name\":\"prof.simulate/shard3\""),
            std::string::npos);
  EXPECT_EQ(lines[1].find("sim_start"), std::string::npos);
  EXPECT_NE(lines[2].find("\"type\":\"metric\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"value\":9"), std::string::npos);
  EXPECT_NE(lines[2].find("{lab=\\\"e1\\\"}"), std::string::npos)
      << lines[2];
}

TEST(ObsExportersTest, LogSinkRoutesIntoJsonl) {
  std::ostringstream out;
  JsonlWriter writer(out);
  util::log::SetSink(MakeLogSink(writer));
  const auto saved_level = util::log::GetLevel();
  util::log::SetLevel(util::log::Level::kWarn);
  util::log::Warn("disk nearly full");
  util::log::Info("below threshold; must not appear");
  util::log::SetSink({});
  util::log::SetLevel(saved_level);

  const auto lines = Lines(out.str());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0],
            "{\"type\":\"log\",\"level\":\"warn\","
            "\"message\":\"disk nearly full\"}");
}

}  // namespace
}  // namespace labmon::obs
