// Span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code around calls into each
// labmon layer; nothing inside the library is instrumented. A span has a
// name, a start and end on the steady clock, the id of the span that caused
// it, and the id of the run it belongs to. Per-sample calls (the
// coordinator's advance callback, each probe, each sink delivery) are far
// too frequent to record one by one, so the timing decorators sum them and
// attach the total to their parent as one aggregate span carrying a call
// count. Counts are recorded at the same boundaries. Everything stays in
// memory until WriteJson at the end of the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace labbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Accumulated time and calls of one per-sample hot path. Owned by one
/// thread at a time; merged into the recorder as an aggregate span.
struct CallTimer {
  std::int64_t ns = 0;
  std::uint64_t calls = 0;

  [[nodiscard]] double seconds() const {
    return static_cast<double>(ns) * 1e-9;
  }
};

class SpanRecorder {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  explicit SpanRecorder(std::uint64_t run_id);

  /// Opens a span; thread-safe. Returns its id.
  std::uint32_t Begin(const std::string& name, std::uint32_t parent);
  /// Closes span `id`; thread-safe.
  void End(std::uint32_t id);
  /// Records the summed time of many calls made inside `parent` as one
  /// aggregate child. Aggregate children of one parent never overlap each
  /// other or the parent's ordinary children (they run on its thread).
  void Aggregate(const std::string& name, std::uint32_t parent,
                 const CallTimer& timer);
  /// Adds `value` to the named count.
  void Count(const std::string& name, double value);

  /// Sum of durations of every span named `name`.
  [[nodiscard]] double Total(const std::string& name) const;
  /// Sum of self times of every span named `name`: duration minus the part
  /// of the interval its children cover.
  [[nodiscard]] double SelfTotal(const std::string& name) const;
  /// Sum of call counts of every aggregate span named `name`.
  [[nodiscard]] std::uint64_t Calls(const std::string& name) const;
  /// Sum of call counts of the aggregate children of every span named
  /// `name`.
  [[nodiscard]] std::uint64_t ChildCalls(const std::string& name) const;
  [[nodiscard]] double CountValue(const std::string& name) const;
  /// Durations of every span named `name`, in recording order.
  [[nodiscard]] std::vector<double> Durations(const std::string& name) const;

  /// Writes every span and count as one JSON object. Returns false when the
  /// file cannot be written.
  [[nodiscard]] bool WriteJson(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;  ///< relative to the recorder's epoch
    std::int64_t end_ns = -1;   ///< -1 while open
    std::uint32_t parent = kNoParent;
    std::int64_t busy_ns = -1;  ///< aggregate spans: summed call time
    std::uint64_t calls = 0;
  };

  [[nodiscard]] std::int64_t Now() const;
  [[nodiscard]] double SelfSeconds(std::uint32_t id) const;

  std::uint64_t run_id_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;  // guards spans_ and counts_
  std::vector<Span> spans_;
  std::map<std::string, double> counts_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const std::string& name,
             std::uint32_t parent)
      : recorder_(&recorder), id_(recorder.Begin(name, parent)) {}
  ~ScopedSpan() { recorder_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  std::uint32_t id_;
};

}  // namespace labbench
