// labmon::obs::prof — always-available, shard-aware profiler.
//
// The obs registry answers "how often"; this layer answers "when" and
// "where did the wall time and the bytes go, per shard, per phase" —
// cheaply enough to leave compiled in everywhere. It is labmon's only
// timing recorder:
//
//  * Phase timers: RAII PhaseScope tags a region with a Phase (simulate /
//    probe / collect / merge / analysis / ...). Each thread owns a private
//    log — plain stores, no atomics, no locks on the hot path — holding
//    (a) exact per-(shard, phase) aggregates (wall self/inclusive time,
//    scope count, allocation bytes/count) that never drop data, and (b) a
//    bounded ring of individual timestamped records for timeline export
//    (drop-oldest on overflow, never blocks; drops are counted).
//  * Hot-path sampling: SampledPhaseScope times 1 of every
//    hot_sample_period scopes (weighting the aggregate by the period) so
//    the per-machine-sample probe/advance path stays within the <= 2%
//    overhead budget; the phase *shares* it reports are unbiased because
//    the ~200k machine-samples per run are statistically homogeneous.
//  * Named spans: Span ("coordinator.iteration", "analysis.table2") writes
//    one named record, optionally with a simulation-time range, into the
//    same per-thread ring. Spans are timeline-only: they never touch the
//    aggregates, so every per-phase number is the same with or without
//    them.
//  * Shard attribution: ShardScope sets the thread's current shard id;
//    scopes opened inside it are attributed to that shard.
//  * Allocation accounting: the library interposes global operator
//    new/delete (see prof.cpp) and tallies per-thread bytes/counts;
//    a PhaseScope charges the delta to its phase, children excluded
//    (self-allocation, mirroring self-time).
//  * Contention: when enabled, the profiler installs the
//    util::SetParallelObserver hook and surfaces per-worker queue-wait
//    (spawn-to-start) and barrier-wait (finish-to-join) as registry
//    histograms (labmon_prof_queue_wait_seconds /
//    labmon_prof_barrier_wait_seconds).
//
// When disabled (the default), a PhaseScope or Span costs one relaxed
// atomic load and a branch; the allocation tallies are two thread-local increments per
// new/delete. Enable() is not thread-safe against concurrently open
// scopes — flip it between runs, not during one.
//
// The profiler never perturbs simulation output: it reads clocks and
// counters only, so the collected trace is bit-identical with profiling on
// or off (pinned by tests/obs/test_obs_prof.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "labmon/util/time.hpp"

namespace labmon::obs::prof {

/// Phases of the reproduction pipeline a scope can be charged to.
enum class Phase : std::uint8_t {
  kBuildFleet = 0,  ///< fleet + campus-profile construction
  kSimulate,        ///< workload driver advancement (behaviour model)
  kProbe,           ///< remote execution attempts (transport + codec)
  kCollect,         ///< coordinator sweep shell (sink, retry logic, tallies)
  kMerge,           ///< deterministic per-lab trace merge
  kAnalysis,        ///< derived trace + analysis pipeline
  kSnapshot,        ///< snapshot cache load/store
  kExport,          ///< report/CSV/exporter output
  kStage,           ///< run loop: block sealing, ring transfer, full-ring waits
  kFold,            ///< streaming engine: streaming-analysis fold stage
  kOther,
};
inline constexpr std::size_t kPhaseCount = 11;
[[nodiscard]] const char* PhaseName(Phase phase) noexcept;

/// Shard id meaning "not inside any shard" (serial / coordinator thread).
inline constexpr std::uint32_t kNoShard = 0xffffffffu;

struct Options {
  /// Per-thread ring capacity for individual records (timeline export).
  /// Aggregates are exact regardless; only timeline records drop.
  std::size_t ring_capacity = 8192;
  /// SampledPhaseScope times 1 of every `hot_sample_period` scopes and
  /// weights the aggregate by the period, so per-machine-sample hot paths
  /// (hundreds of thousands of scopes per run) cost a thread-local
  /// increment when sampled out instead of two clock reads. 1 = time
  /// every scope (SampledPhaseScope degenerates to PhaseScope).
  std::uint32_t hot_sample_period = 32;
};

/// Enables the profiler process-wide and installs the ParallelFor
/// observer. Not thread-safe against open scopes.
void Enable(const Options& options = {});
/// Disables scope recording and uninstalls the ParallelFor observer.
/// Accumulated data stays readable until Reset().
void Disable();
[[nodiscard]] bool Enabled() noexcept;
/// Zeroes every thread log (aggregates, rings, drop counters). Call
/// between runs, never while scopes are open on other threads.
void Reset();

/// Monotonic per-thread allocation tallies (bytes requested / call count),
/// maintained by the operator new/delete interposition. Always counting,
/// whether or not the profiler is enabled.
struct AllocCounters {
  std::uint64_t bytes = 0;
  std::uint64_t count = 0;
};
[[nodiscard]] AllocCounters ThreadAllocCounters() noexcept;

namespace detail {
struct ThreadLog;
/// Returns this thread's log, creating (or reusing a retired) one.
ThreadLog* AcquireThreadLog();
void RecordScopeExit(ThreadLog* log, Phase phase, std::uint32_t shard,
                     std::uint8_t depth, std::uint64_t start_ns,
                     std::uint64_t total_ns, std::uint64_t self_ns,
                     std::uint64_t bytes_self, std::uint64_t allocs_self,
                     std::uint64_t weight = 1);
[[nodiscard]] std::uint64_t NowNanos() noexcept;
/// True for the 1-in-period scope that should be timed (bumps the
/// thread-local tick); false costs one increment and a branch. Ticks are
/// kept per phase: hot scopes of different phases strictly alternate on a
/// thread (advance, probe, advance, ...), so a single shared counter mod
/// period would phase-lock and starve one of the streams entirely.
[[nodiscard]] bool SampleHotScope(Phase phase) noexcept;
// Thread-local scope stack head + current shard (defined in prof.cpp).
}  // namespace detail

/// Tags the current thread with a shard id for the scope's lifetime.
class ShardScope {
 public:
  explicit ShardScope(std::uint32_t shard) noexcept;
  ShardScope(const ShardScope&) = delete;
  ShardScope& operator=(const ShardScope&) = delete;
  ~ShardScope();

 private:
  std::uint32_t previous_ = kNoShard;
  bool active_ = false;
};

/// RAII phase timer. Nesting is supported: a parent's self time/allocation
/// excludes its children's, so per-phase self aggregates sum to the real
/// wall time without double counting.
class PhaseScope {
 public:
  explicit PhaseScope(Phase phase) noexcept;
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;
  ~PhaseScope();

  [[nodiscard]] bool active() const noexcept { return log_ != nullptr; }

 private:
  friend class SampledPhaseScope;
  detail::ThreadLog* log_ = nullptr;  ///< null = profiler disabled
  PhaseScope* parent_ = nullptr;
  Phase phase_ = Phase::kOther;
  std::uint32_t shard_ = kNoShard;
  std::uint8_t depth_ = 0;
  std::uint64_t start_ns_ = 0;
  std::uint64_t bytes0_ = 0;
  std::uint64_t allocs0_ = 0;
  // Totals propagated up by exiting children.
  std::uint64_t child_ns_ = 0;
  std::uint64_t child_bytes_ = 0;
  std::uint64_t child_allocs_ = 0;
};

/// Statistical phase timer for per-machine-sample hot paths (one probe,
/// one driver advance). Times 1 of every Options::hot_sample_period
/// scopes and records it with that weight, so aggregates estimate the
/// full population while a sampled-out scope costs a single thread-local
/// increment. Hot scopes are leaves by design: they propagate their
/// weighted time to the enclosing PhaseScope (keeping the parent's self
/// time statistically correct) but do not expect children of their own.
class SampledPhaseScope {
 public:
  explicit SampledPhaseScope(Phase phase) noexcept;
  SampledPhaseScope(const SampledPhaseScope&) = delete;
  SampledPhaseScope& operator=(const SampledPhaseScope&) = delete;
  ~SampledPhaseScope();

  [[nodiscard]] bool active() const noexcept { return log_ != nullptr; }

 private:
  detail::ThreadLog* log_ = nullptr;  ///< null = disabled or sampled out
  Phase phase_ = Phase::kOther;
  std::uint32_t shard_ = kNoShard;
  std::uint32_t weight_ = 1;
  std::uint8_t depth_ = 0;
  std::uint64_t start_ns_ = 0;
  std::uint64_t bytes0_ = 0;
  std::uint64_t allocs0_ = 0;
};

/// Timeline-only named scope. When the profiler is enabled at
/// construction, destruction writes one Record carrying `name` (and the
/// simulation range, if set) into the calling thread's ring. A Span never
/// joins the PhaseScope chain and never touches the per-(shard, phase)
/// aggregates: an enclosing PhaseScope's self time still includes it.
/// Depth counts the enclosing Spans on this thread.
class Span {
 public:
  /// `name` must be a string literal: records keep the pointer.
  explicit Span(const char* name) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

  /// Attaches the simulation-time range the span covers.
  void SetSimRange(util::SimTime start, util::SimTime end) noexcept {
    sim_start_ = start;
    sim_end_ = end;
  }
  [[nodiscard]] bool active() const noexcept { return log_ != nullptr; }

 private:
  detail::ThreadLog* log_ = nullptr;  ///< null = disabled at construction
  const char* name_ = nullptr;
  util::SimTime sim_start_ = -1;
  util::SimTime sim_end_ = -1;
  std::uint64_t start_ns_ = 0;
  std::uint32_t shard_ = kNoShard;
  std::uint8_t depth_ = 0;
};

/// One timeline record (ring entry): a phase scope, or a named Span.
struct Record {
  std::uint64_t start_ns = 0;  ///< since profiler epoch (Enable time)
  std::uint64_t dur_ns = 0;
  std::uint64_t self_ns = 0;
  std::uint64_t alloc_bytes = 0;  ///< self (children excluded)
  const char* name = nullptr;     ///< Span name; null for a phase record
  util::SimTime sim_start = -1;   ///< Span simulation range; -1 = unset
  util::SimTime sim_end = -1;
  std::uint32_t alloc_count = 0;
  std::uint32_t shard = kNoShard;
  std::uint32_t thread = 0;  ///< dense per-process log ordinal
  Phase phase = Phase::kOther;
  std::uint8_t depth = 0;
};

/// Exact per-(shard, phase) aggregate.
struct PhaseAgg {
  std::uint32_t shard = kNoShard;
  Phase phase = Phase::kOther;
  std::uint64_t count = 0;        ///< scopes closed
  std::uint64_t self_ns = 0;      ///< wall time, children excluded
  std::uint64_t incl_ns = 0;      ///< wall time including children
  std::uint64_t alloc_bytes = 0;  ///< bytes allocated, children excluded
  std::uint64_t alloc_count = 0;  ///< allocations, children excluded
};

/// Drained profiler state.
struct Report {
  std::vector<PhaseAgg> rows;    ///< sorted by (shard, phase)
  std::vector<Record> records;   ///< all retained ring records, by start_ns
  std::uint64_t dropped_records = 0;
  std::size_t thread_logs = 0;

  /// Sum of self_ns over rows matching `phase` (any shard), seconds.
  [[nodiscard]] double PhaseSelfSeconds(Phase phase) const noexcept;
  /// Sum of alloc_bytes over rows matching `phase` (any shard).
  [[nodiscard]] std::uint64_t PhaseAllocBytes(Phase phase) const noexcept;
};

/// Aggregates every thread log (live and retired). Does not clear.
[[nodiscard]] Report Drain();

/// Renders the report as a JSON object fragment:
///   {"dropped_records":N,"thread_logs":N,"phases":[{...},...]}
/// (no trailing newline; embeddable in a larger document).
[[nodiscard]] std::string ReportJson(const Report& report);

}  // namespace labmon::obs::prof

namespace labmon::obs {
using prof::Span;
}  // namespace labmon::obs
