#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace labbench {

SpanRecorder::SpanRecorder(std::uint64_t run_id)
    : run_id_(run_id), epoch_(Clock::now()) {}

std::int64_t SpanRecorder::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::uint32_t SpanRecorder::Begin(const std::string& name,
                                  std::uint32_t parent) {
  const std::int64_t now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = name;
  span.start_ns = now;
  span.parent = parent;
  spans_.push_back(std::move(span));
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void SpanRecorder::End(std::uint32_t id) {
  const std::int64_t now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end_ns = now;
}

void SpanRecorder::Aggregate(const std::string& name, std::uint32_t parent,
                             const CallTimer& timer) {
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = name;
  span.parent = parent;
  // An aggregate has no interval of its own: it is pinned to its parent's
  // start and carries the summed call time.
  span.start_ns = spans_[parent].start_ns;
  span.end_ns = span.start_ns + timer.ns;
  span.busy_ns = timer.ns;
  span.calls = timer.calls;
  spans_.push_back(std::move(span));
}

void SpanRecorder::Count(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  counts_[name] += value;
}

double SpanRecorder::SelfSeconds(std::uint32_t id) const {
  const Span& self = spans_[id];
  const std::int64_t begin = self.start_ns;
  const std::int64_t end = std::max(self.end_ns, begin);
  std::int64_t aggregate_ns = 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  for (const Span& child : spans_) {
    if (child.parent != id || child.end_ns < 0) continue;
    if (child.busy_ns >= 0) {
      aggregate_ns += child.busy_ns;
    } else {
      intervals.emplace_back(std::max(child.start_ns, begin),
                             std::min(child.end_ns, end));
    }
  }
  // Union of the ordinary children's intervals: parallel children (shards)
  // overlap, and overlapping time is covered only once.
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered_ns = 0;
  std::int64_t reach = begin;
  for (const auto& [s, e] : intervals) {
    const std::int64_t from = std::max(s, reach);
    if (e > from) {
      covered_ns += e - from;
      reach = e;
    }
  }
  const std::int64_t self_ns = (end - begin) - covered_ns - aggregate_ns;
  return static_cast<double>(std::max<std::int64_t>(0, self_ns)) * 1e-9;
}

double SpanRecorder::Total(const std::string& name) const {
  double total = 0.0;
  for (const double d : Durations(name)) total += d;
  return total;
}

double SpanRecorder::SelfTotal(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (std::uint32_t id = 0; id < spans_.size(); ++id) {
    if (spans_[id].name == name) total += SelfSeconds(id);
  }
  return total;
}

std::uint64_t SpanRecorder::Calls(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t calls = 0;
  for (const Span& span : spans_) {
    if (span.name == name) calls += span.calls;
  }
  return calls;
}

std::uint64_t SpanRecorder::ChildCalls(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t calls = 0;
  for (const Span& span : spans_) {
    if (span.parent != kNoParent && spans_[span.parent].name == name) {
      calls += span.calls;
    }
  }
  return calls;
}

double SpanRecorder::CountValue(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counts_.find(name);
  return it == counts_.end() ? 0.0 : it->second;
}

std::vector<double> SpanRecorder::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name && span.end_ns >= 0) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-9);
    }
  }
  return out;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"run_id\": %llu, \"spans\": [",
               static_cast<unsigned long long>(run_id_));
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %lld, \"run_id\": %llu, "
                 "\"self_s\": %.9f",
                 i == 0 ? "" : ",", i, s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 s.parent == kNoParent ? -1LL
                                       : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(run_id_),
                 SelfSeconds(static_cast<std::uint32_t>(i)));
    if (s.busy_ns >= 0) {
      std::fprintf(out, ", \"aggregate\": true, \"calls\": %llu",
                   static_cast<unsigned long long>(s.calls));
    }
    std::fprintf(out, "}");
  }
  std::fprintf(out, "\n], \"counts\": {");
  bool first = true;
  for (const auto& [name, value] : counts_) {
    std::fprintf(out, "%s\n  \"%s\": %.17g", first ? "" : ",", name.c_str(),
                 value);
    first = false;
  }
  std::fprintf(out, "\n}}\n");
  return std::fclose(out) == 0;
}

}  // namespace labbench
