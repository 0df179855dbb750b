// The DDC coordinator (§3, Figure 1): schedules periodic probe executions
// over the machine set, captures probe output, and feeds it to
// post-collect code (the sink).
//
// Two execution schedules are modelled:
//  * kSequential  — what the study ran: one psexec at a time over all 169
//    machines. Offline-host timeouts make iterations overrun the 15-minute
//    period, which is why fewer iterations complete than the calendar allows.
//  * kParallelSimulated — a k-worker pool (simulated schedule, deterministic):
//    the ablation benchmark uses it to show how parallel probing removes the
//    overrun problem.
//
// Collection is retry-hardened: CollectOnce wraps each machine's attempt in
// a bounded RetryPolicy loop (exponential backoff + jitter, capped by a
// per-iteration wall-clock budget), so transient RPC blips and corrupt wire
// payloads can be recovered within the iteration instead of leaving a hole
// in the trace. Defaults keep the paper's single-attempt behaviour and a
// bit-identical trace.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "labmon/ddc/executor.hpp"
#include "labmon/ddc/probe.hpp"
#include "labmon/ddc/w32_probe.hpp"
#include "labmon/obs/registry.hpp"
#include "labmon/util/function_ref.hpp"
#include "labmon/util/rng.hpp"
#include "labmon/util/time.hpp"
#include "labmon/winsim/fleet.hpp"

namespace labmon::faultsim {
class FaultInjector;
}  // namespace labmon::faultsim

namespace labmon::ddc {

/// One probe attempt as delivered to post-collect code.
struct CollectedSample {
  std::size_t machine_index = 0;
  std::uint64_t iteration = 0;
  util::SimTime attempt_time = 0;  ///< instant the execution started
  std::uint32_t attempt_number = 1;  ///< 1-based within this collection
  bool recovered = false;  ///< successful after at least one failed attempt
  ExecOutcome outcome;
  /// Structured fast path: when non-null, the probe filled this sample
  /// in-process and `outcome.stdout_text` is empty except on cross-check
  /// attempts (see CoordinatorConfig::structured_crosscheck_period). Points
  /// at coordinator-owned scratch, valid only for the OnSample call.
  const W32Sample* structured = nullptr;
};

/// The sink's judgement of a delivered sample. kRejected means "the payload
/// was unusable" (parse failure / corrupt wire bytes); the coordinator may
/// retry such attempts under RetryPolicy::retry_rejects. Failed transport
/// outcomes are kAccepted — there is nothing wrong with the *payload*.
enum class SampleVerdict : std::uint8_t { kAccepted, kRejected };

/// Post-collect interface ("post-collecting code … executed at the
/// coordinator site, immediately after a successful remote execution").
class SampleSink {
 public:
  virtual ~SampleSink() = default;
  virtual SampleVerdict OnSample(const CollectedSample& sample) = 0;
  /// Called when an iteration over all machines completes.
  virtual void OnIterationEnd(std::uint64_t iteration,
                              util::SimTime start_time,
                              util::SimTime end_time) {
    (void)iteration;
    (void)start_time;
    (void)end_time;
  }
};

/// Coordinator configuration.
struct CoordinatorConfig {
  util::SimTime period = 15 * util::kSecondsPerMinute;
  enum class Mode : std::uint8_t { kSequential, kParallelSimulated };
  Mode mode = Mode::kSequential;
  int workers = 8;  ///< parallel-simulated worker count
  /// Machine range this coordinator sweeps: [first_machine, first_machine +
  /// machine_count). machine_count == 0 means the whole fleet. The sharded
  /// experiment gives each lab its own coordinator over the lab's range.
  std::size_t first_machine = 0;
  std::size_t machine_count = 0;
  /// Iteration scheduling. The paper's coordinator (false) starts the next
  /// sweep at `max(start + period, end_of_sweep)` — an overrunning sweep
  /// *skips* period boundaries, which is why the study completed 6,883 of a
  /// possible 7,392 iterations. The aligned schedule (true) anchors sweep k
  /// to boundary `start + k*period` and carries late sweeps without skipping,
  /// so every range sweeps the same boundary grid — the property the sharded
  /// engine needs to merge per-lab traces onto one campus-wide iteration
  /// axis.
  bool aligned_schedule = false;
  ExecPolicy exec_policy;
  /// Bounded retries per machine per iteration (default: one attempt).
  RetryPolicy retry;
  std::uint64_t seed = 0xddc0ffee;
  /// Optional fault injector (see labmon::faultsim). Null or inactive keeps
  /// the transport path untouched. Not owned; must outlive the coordinator.
  faultsim::FaultInjector* faults = nullptr;
  /// Metrics registry the run reports into (per-machine attempt/outcome
  /// counters, latency histograms, iteration-overrun gauges). Null opts the
  /// hot path out of instrumentation entirely.
  obs::Registry* metrics = nullptr;
  /// In-process structured fast path: successful probes fill a W32Sample
  /// directly instead of rendering stdout text that the sink re-parses.
  /// Off by default — sinks that consume raw stdout (e.g. OutputArchive)
  /// need the text; Experiment::Run opts in for its TraceStoreSink.
  bool structured_fast_path = false;
  /// With the fast path on, every Nth structured success ALSO renders the
  /// text so the sink can cross-check codec fidelity (deterministic 1-in-N
  /// sampling). 0 disables cross-checking.
  std::uint32_t structured_crosscheck_period = 64;
};

/// Aggregate statistics of a monitoring run.
struct RunStats {
  std::uint64_t iterations = 0;
  std::uint64_t attempts = 0;
  std::uint64_t successes = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t errors = 0;
  /// Graceful-degradation taxonomy (per machine-collection, not attempt):
  /// a collection either yields an accepted sample, ends `missing`
  /// (transport never succeeded) or ends `corrupt` (payload delivered but
  /// rejected by the sink, retries exhausted).
  std::uint64_t missing = 0;
  std::uint64_t corrupt = 0;
  std::uint64_t recovered_after_retry = 0;  ///< accepted on attempt > 1
  std::uint64_t retry_attempts = 0;         ///< extra attempts beyond the first
  std::uint64_t retried_collections = 0;    ///< collections that retried at all
  std::uint64_t faults_injected = 0;        ///< injector activity during Run()
  double total_span_s = 0.0;         ///< last iteration end - start
  double max_iteration_s = 0.0;
  double mean_iteration_s = 0.0;

  [[nodiscard]] double ResponseRate() const noexcept {
    return attempts ? static_cast<double>(successes) /
                          static_cast<double>(attempts)
                    : 0.0;
  }
  /// Fraction of retried collections that ended in an accepted sample.
  [[nodiscard]] double RetryRecoveryRate() const noexcept {
    return retried_collections
               ? static_cast<double>(recovered_after_retry) /
                     static_cast<double>(retried_collections)
               : 0.0;
  }
};

class Coordinator {
 public:
  /// Hook bringing the co-simulated behaviour driver up to date before each
  /// probe. A FunctionRef (not std::function): the coordinator never
  /// outlives the driver, and the per-probe path should not pay for type
  /// erasure that can allocate.
  using AdvanceFn = util::FunctionRef<void(util::SimTime)>;

  /// `advance` is invoked with every execution instant before probing;
  /// pass the default (null) when driving a static fleet. The referenced
  /// callable must outlive the coordinator — bind a named lambda, not a
  /// temporary that dies at the end of the constructor expression.
  Coordinator(winsim::Fleet& fleet, Probe& probe, CoordinatorConfig config,
              SampleSink& sink, AdvanceFn advance = {});

  /// Runs iterations from `start` until the iteration start would reach
  /// `end`. Returns run statistics. Tallies are per-run: calling Run()
  /// again on the same coordinator starts from zero. Exactly equivalent to
  /// Begin(start); StepUntil(end); Finish().
  RunStats Run(util::SimTime start, util::SimTime end);

  /// Incremental windowed driving — the streaming engine advances every
  /// lab in lockstep time windows so sealed blocks stream out while later
  /// windows are still simulating. The sweep/boundary sequence (and thus
  /// every probe, retry and fault draw) is bit-identical to one Run(start,
  /// end) call for any ascending window partition of [start, end).
  void Begin(util::SimTime start);
  /// Runs every iteration whose schedule condition falls before `until`.
  /// Call with ascending `until` values; the final call must use the run's
  /// end time.
  void StepUntil(util::SimTime until);
  /// Finalises and returns the run statistics accumulated since Begin().
  [[nodiscard]] RunStats Finish();

 private:
  /// Per-machine instruments, resolved once per Run() so the probe loop
  /// only touches cached pointers.
  struct MachineInstruments {
    obs::Counter* attempts = nullptr;
    obs::Counter* ok = nullptr;
    obs::Counter* timeout = nullptr;
    obs::Counter* error = nullptr;
  };

  [[nodiscard]] util::SimTime RunIterationSequential(std::uint64_t iteration,
                                                     util::SimTime start);
  [[nodiscard]] util::SimTime RunIterationParallel(std::uint64_t iteration,
                                                   util::SimTime start);
  void AdvanceTo(util::SimTime t);
  void Tally(std::size_t machine_index, const ExecOutcome& outcome) noexcept;
  /// Runs one attempt; sets `*structured_filled` when the fast path
  /// delivered the sample into `scratch_` instead of stdout text.
  ExecOutcome ExecuteOne(std::size_t machine_index, util::SimTime t,
                         bool* structured_filled);
  /// Collects machine `machine_index` for `iteration`: the attempt at
  /// `start` plus any retries the policy and the iteration budget allow
  /// (budget measured from `iteration_start`). Every attempt is delivered
  /// to the sink. Returns the instant the collection finished.
  [[nodiscard]] util::SimTime CollectOnce(std::size_t machine_index,
                                          std::uint64_t iteration,
                                          util::SimTime iteration_start,
                                          util::SimTime start);
  void BindInstruments();

  std::uint64_t attempts_ = 0;
  std::uint64_t successes_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t missing_ = 0;
  std::uint64_t corrupt_ = 0;
  std::uint64_t recovered_ = 0;
  std::uint64_t retry_attempts_ = 0;
  std::uint64_t retried_collections_ = 0;
  std::uint64_t structured_ok_ = 0;  ///< cross-check cadence counter

  // Incremental-run loop state (Begin()/StepUntil()/Finish()).
  util::SimTime run_start_ = 0;
  util::SimTime boundary_ = 0;          ///< aligned mode: sweep k's anchor
  util::SimTime iteration_start_ = 0;
  util::SimTime last_iteration_end_ = 0;
  std::uint64_t iterations_done_ = 0;
  double iteration_s_sum_ = 0.0;
  double max_iteration_s_ = 0.0;
  std::uint64_t faults_before_ = 0;

  winsim::Fleet& fleet_;
  Probe& probe_;
  CoordinatorConfig config_;
  SampleSink& sink_;
  std::size_t first_ = 0;  ///< resolved machine range [first_, end_)
  std::size_t end_ = 0;
  AdvanceFn advance_;
  RemoteExecutor executor_;
  /// Backoff jitter stream, separate from the transport RNG so enabling
  /// retries never perturbs transport draws for non-retried attempts.
  util::Rng retry_rng_;
  W32Sample scratch_;  ///< reused structured-sample buffer

  std::vector<MachineInstruments> machine_metrics_;
  obs::Histogram* latency_hist_[3] = {nullptr, nullptr, nullptr};
  obs::Histogram* iteration_hist_ = nullptr;
  obs::Histogram* overrun_hist_ = nullptr;
  obs::Gauge* overrun_gauge_ = nullptr;
  obs::Counter* iterations_counter_ = nullptr;
  obs::Counter* retry_counter_ = nullptr;
  obs::Counter* recovered_counter_ = nullptr;
  obs::Counter* missing_counter_ = nullptr;
  obs::Counter* corrupt_counter_ = nullptr;
  obs::Histogram* backoff_hist_ = nullptr;
};

}  // namespace labmon::ddc
