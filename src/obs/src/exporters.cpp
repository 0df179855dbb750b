#include "labmon/obs/exporters.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>

namespace labmon::obs {

namespace {

const char* TypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "untyped";
}

/// Prometheus-style number: integral values render without a decimal point,
/// the rest as shortest %g with 10 significant digits.
std::string FormatValue(double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.10g", v);
  }
  return buf;
}

std::string FormatBoundary(double b) { return FormatValue(b); }

/// Label set rendered with an extra `le` pair appended (histogram buckets).
std::string RenderBucketLabels(const Labels& labels, const std::string& le) {
  Labels with_le = labels;
  with_le.emplace_back("le", le);
  return RenderLabels(with_le);
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// The span name, or "prof.<phase>[/shardN]" for a phase record.
std::string RecordName(const prof::Record& record) {
  if (record.name != nullptr) return record.name;
  std::string name = std::string("prof.") + prof::PhaseName(record.phase);
  if (record.shard != prof::kNoShard) {
    name += "/shard" + std::to_string(record.shard);
  }
  return name;
}

void WriteChromeEvent(std::ostream& out, const std::string& name,
                      const prof::Record& record, int pid, std::uint64_t ts,
                      std::uint64_t dur, bool& first) {
  if (!first) out << ",\n";
  first = false;
  out << "{\"name\":\"" << JsonEscape(name)
      << "\",\"cat\":\"labmon\",\"ph\":\"X\",\"ts\":" << ts
      << ",\"dur\":" << dur << ",\"pid\":" << pid
      << ",\"tid\":" << record.thread << ",\"args\":{\"depth\":"
      << static_cast<unsigned>(record.depth);
  if (record.sim_start >= 0) {
    out << ",\"sim_start\":" << record.sim_start
        << ",\"sim_end\":" << record.sim_end;
  }
  out << "}}";
}

void WriteProcessName(std::ostream& out, int pid, const char* name,
                      bool& first) {
  if (!first) out << ",\n";
  first = false;
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
      << ",\"tid\":0,\"args\":{\"name\":\"" << name << "\"}}";
}

}  // namespace

void WritePrometheus(const Registry& registry, std::ostream& out) {
  for (const auto& family : registry.Snapshot()) {
    if (!family.help.empty()) {
      out << "# HELP " << family.name << ' ' << family.help << '\n';
    }
    out << "# TYPE " << family.name << ' ' << TypeName(family.type) << '\n';
    for (const auto& point : family.counters) {
      out << family.name << RenderLabels(point.labels) << ' ' << point.value
          << '\n';
    }
    for (const auto& point : family.gauges) {
      out << family.name << RenderLabels(point.labels) << ' '
          << FormatValue(point.value) << '\n';
    }
    for (const auto& point : family.histograms) {
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < point.boundaries.size(); ++i) {
        cumulative += point.buckets[i];
        out << family.name << "_bucket"
            << RenderBucketLabels(point.labels,
                                  FormatBoundary(point.boundaries[i]))
            << ' ' << cumulative << '\n';
      }
      out << family.name << "_bucket"
          << RenderBucketLabels(point.labels, "+Inf") << ' ' << point.count
          << '\n';
      out << family.name << "_sum" << RenderLabels(point.labels) << ' '
          << FormatValue(point.sum) << '\n';
      out << family.name << "_count" << RenderLabels(point.labels) << ' '
          << point.count << '\n';
    }
  }
}

void WriteChromeTrace(const prof::Report& report, std::ostream& out) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  WriteProcessName(out, 1, "labmon wall clock", first);
  WriteProcessName(out, 2, "labmon sim clock", first);
  for (const prof::Record& record : report.records) {
    const std::string name = RecordName(record);
    WriteChromeEvent(out, name, record, /*pid=*/1, record.start_ns / 1000,
                     record.dur_ns / 1000, first);
    if (record.sim_start >= 0 && record.sim_end >= record.sim_start) {
      // Mirror on the sim timeline: 1 simulated second = 1 rendered second.
      WriteChromeEvent(
          out, name, record, /*pid=*/2,
          static_cast<std::uint64_t>(record.sim_start) * 1000000u,
          static_cast<std::uint64_t>(record.sim_end - record.sim_start) *
              1000000u,
          first);
    }
  }
  out << "\n]}\n";
}

void WriteSpansJsonl(const prof::Report& report, JsonlWriter& writer) {
  for (const prof::Record& record : report.records) {
    writer.Begin("span")
        .Field("name", RecordName(record))
        .Field("start_us", record.start_ns / 1000)
        .Field("duration_us", record.dur_ns / 1000)
        .Field("thread", static_cast<std::uint64_t>(record.thread))
        .Field("depth", static_cast<std::uint64_t>(record.depth));
    if (record.sim_start >= 0) {
      writer.Field("sim_start", static_cast<std::int64_t>(record.sim_start))
          .Field("sim_end", static_cast<std::int64_t>(record.sim_end));
    }
    writer.End();
  }
}

void WriteMetricsJsonl(const Registry& registry, JsonlWriter& writer) {
  for (const auto& family : registry.Snapshot()) {
    for (const auto& point : family.counters) {
      writer.Begin("metric")
          .Field("name", family.name)
          .Field("labels", RenderLabels(point.labels))
          .Field("value", point.value);
      writer.End();
    }
    for (const auto& point : family.gauges) {
      writer.Begin("metric")
          .Field("name", family.name)
          .Field("labels", RenderLabels(point.labels))
          .Field("value", point.value);
      writer.End();
    }
    for (const auto& point : family.histograms) {
      const double mean =
          point.count ? point.sum / static_cast<double>(point.count) : 0.0;
      writer.Begin("metric")
          .Field("name", family.name)
          .Field("labels", RenderLabels(point.labels))
          .Field("count", point.count)
          .Field("sum", point.sum)
          .Field("mean", mean);
      writer.End();
    }
  }
}

}  // namespace labmon::obs
