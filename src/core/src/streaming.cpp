// The one campaign run loop, and the streaming engine built on it.
//
// Thread structure of one run:
//
//   shard threads (started once; lockstep windows, std::barrier)
//       │  seal iteration-aligned blocks at window boundaries
//       ▼     (resumed labs: decoded from their segments up front)
//   collect ring (bounded MPSC StagingRing<StagedBlock>)
//       │  merge thread: drain → MergeFrontier::Advance → consume(block)
//       ▼
//   Experiment::Run: one merged block, the materialised trace
//   StreamingExperiment::Run: fold ring (StagingRing<TraceBlock>)
//       │  fold thread: StreamingAnalysis::ConsumeRing (hash + Accept)
//       ▼
//   StreamingAnalysisResult + stream hash
//
// Every lab is advanced through window w before any lab starts w+1 (the
// Begin/StepUntil/Finish of detail::LabRun keep the probe/fault sequence
// the same for any window partition), so after each window the merge
// frontier holds complete iteration fronts and emits merged blocks while
// later windows are still simulating. Block buffers recycle backwards:
// the frontier hands consumed collection blocks to per-lab pools the
// sealers draw from, and the fold returns emptied merged blocks to the
// emitter's pool — steady-state block traffic allocates nothing.
//
// Shutdown discipline (no path may deadlock): a failure is checked in the
// barrier's completion step, which ends the lockstep for every shard at
// once; the merge thread drains the collect ring unconditionally and the
// fold thread drains the fold ring unconditionally, so producers can
// never park forever on a full ring. On error the rings are cancelled,
// which wakes every parked thread with `false`; scope guards declared
// after the threads cancel the rings during unwind so the jthread joins
// always complete.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "labmon/core/streaming.hpp"
#include "labmon/obs/prof.hpp"
#include "labmon/obs/registry.hpp"
#include "labmon/obs/span.hpp"
#include "labmon/trace/merge_frontier.hpp"
#include "labmon/util/log.hpp"
#include "labmon/util/parallel.hpp"
#include "labmon/util/staging_ring.hpp"
#include "lab_run.hpp"

namespace labmon::core {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One collect-ring item: a sealed block of `lab`'s stream, or (with
/// `final_block` set and no payload) the end-of-stream marker that lets
/// the merge finish the lab's part.
struct StagedBlock {
  std::size_t lab = 0;
  bool final_block = false;
  std::unique_ptr<trace::TraceBlock> block;
};

/// Per-lab arena: the lab's sealer acquires heap blocks here, the merge
/// returns them once consumed. Acquire() yields a null pointer when the pool is
/// empty (counted as an allocation) — the caller falls back to new.
using BlockPool = util::RecyclingPool<std::unique_ptr<trace::TraceBlock>>;

std::unique_ptr<trace::TraceBlock> AcquireBlock(BlockPool& pool) {
  std::unique_ptr<trace::TraceBlock> block = pool.Acquire();
  return block ? std::move(block) : std::make_unique<trace::TraceBlock>();
}

/// The streaming engine's lockstep window: short, so the fronts in flight
/// (collect ring, frontier buffer, sealers' working stores) stay small.
constexpr std::size_t kStreamWindowIterations = 16;

/// Cancels a ring when the scope unwinds, waking every thread parked on
/// it so the jthread joins above it can complete (a no-op once drained).
template <typename T>
struct CancelOnExit {
  util::StagingRing<T>& ring;
  ~CancelOnExit() { ring.Cancel(); }
};

/// Mirrors the run's spill accounting into obs gauges (no-op when the run
/// did not spill). Per-column ratios are kept by the codec itself under
/// labmon_spill_column_*.
void PublishSpillGauges(const SpillCompressionStats& spill) {
  if (spill.codec.empty() || spill.segments == 0) return;
  const struct {
    const char* name;
    const char* help;
    double value;
  } gauges[] = {
      {"labmon_spill_compression_ratio",
       "Raw columnar bytes per encoded spill payload byte.",
       spill.CompressionRatio()},
      {"labmon_spill_segment_bytes",
       "On-disk spill segment bytes written by the last run.",
       static_cast<double>(spill.segment_bytes)},
      {"labmon_spill_encode_ns_per_sample",
       "Spill encode cost of the last run, ns per sample.",
       spill.EncodeNsPerSample()},
      {"labmon_spill_decode_ns_per_sample",
       "Spill decode cost of the last run, ns per sample.",
       spill.DecodeNsPerSample()},
  };
  for (const auto& gauge : gauges) {
    obs::DefaultRegistry()
        .GetGauge(gauge.name, gauge.help, {{"codec", spill.codec}})
        .Set(gauge.value);
  }
}

}  // namespace

namespace detail {

PipelineStats RunLoop(CampaignRun& run, trace::MergeFrontier& frontier,
                      trace::MergeFrontier::EmitFn consume,
                      std::size_t window_iterations,
                      Clock::time_point run_t0) {
  const ExperimentConfig& config = run.campaign.config;
  const StreamingOptions& options = run.options;
  const winsim::Fleet& fleet = run.campaign.fleet;
  const std::size_t lab_count = fleet.lab_count();
  const util::SimTime horizon = config.campus.EndTime();

  PipelineStats pipe;
  if (!run.Prepare()) return pipe;
  const std::vector<LabShard> shards = PartitionLabsByMachines(
      fleet, ClampWorkers(config.shards, lab_count));
  const util::SimTime period =
      config.collector.period > 0 ? config.collector.period : horizon;
  const util::SimTime window_span =
      static_cast<util::SimTime>(window_iterations) * period;
  util::log::Info(
      "running " + std::to_string(config.campus.days) + "-day campaign over " +
      std::to_string(fleet.size()) + " machines (" +
      std::to_string(shards.size()) + " shards" +
      (run.spill ? ", spill to " + options.spill_dir : std::string()) +
      (run.labs_resumed ? ", " + std::to_string(run.labs_resumed) + " resumed"
                        : std::string()) +
      ")");

  // Pipeline plumbing. Declared before the threads (which capture
  // everything by reference) and destroyed after them.
  util::StagingRing<StagedBlock> collect_ring(options.ring_capacity);
  std::vector<BlockPool> lab_pools(lab_count);
  std::vector<std::unique_ptr<SealedLab>> live(lab_count);
  std::atomic<bool> any_failed{false};
  const auto fail = [&](std::string message) {
    run.Fail(std::move(message));
    any_failed.store(true);
  };
  std::vector<double> shard_busy_s(shards.size(), 0.0);
  // One slot per shard thread plus the merge thread's.
  std::vector<std::exception_ptr> thrown(shards.size() + 1);

  const std::size_t sort_workers_max = std::max<std::size_t>(
      1, options.merge_sort_workers > 0
             ? options.merge_sort_workers
             : std::min<std::size_t>(4, util::DefaultWorkerCount()));

  const auto loop_t0 = Clock::now();

  const auto merge = [&] {
    const auto recycle = [&](std::size_t part,
                             std::unique_ptr<trace::TraceBlock> block) {
      block->Clear();
      lab_pools[part].Release(std::move(block));
    };
    StagedBlock item;
    // Parked on an empty ring the merge is idle, not staging: like a
    // shard waiting at the barrier, that time is charged to no phase (the
    // ring's stats keep it as ring_pop_wait_s).
    while (collect_ring.Pop(item)) {
      if (item.final_block) {
        frontier.FinishPart(item.lab);
      } else {
        frontier.Append(item.lab, std::move(item.block));
      }
      pipe.merge_lag_peak_blocks =
          std::max(pipe.merge_lag_peak_blocks, frontier.buffered_blocks());
      // Escalate to parallel per-front sorts when the ring backs up —
      // output-invariant, it only changes who sorts which ready front.
      const std::size_t sort_workers =
          collect_ring.size() * 2 >= collect_ring.capacity()
              ? sort_workers_max
              : 1;
      obs::prof::PhaseScope prof_merge(obs::prof::Phase::kMerge);
      frontier.Advance(consume, recycle, sort_workers);
    }
    if (collect_ring.cancelled()) return;
    if (!frontier.finished()) {
      obs::prof::PhaseScope prof_merge(obs::prof::Phase::kMerge);
      frontier.Advance(consume, recycle, 1);
    }
    if (!frontier.finished()) {
      run.Fail("campaign merge ended with incomplete lab streams");
    }
  };
  std::jthread merge_thread([&] {
    try {
      merge();
    } catch (...) {
      // Also wakes the shard threads parked on a full ring.
      thrown.back() = std::current_exception();
      any_failed.store(true);
      collect_ring.Cancel();
    }
  });
  const CancelOnExit<StagedBlock> cancel_collect{collect_ring};

  // ---- Producer side: shard threads. ----
  // A resumed lab replays its spilled segment into the ring before its
  // shard joins the lockstep (the merge buffers it until the live labs
  // catch up).
  const auto replay = [&](std::size_t lab) {
    obs::prof::PhaseScope prof_stage(obs::prof::Phase::kStage);
    auto opened =
        trace::SegmentReader::Open(SegmentPath(options.spill_dir, lab));
    if (!opened.ok()) return fail(opened.error());
    trace::SegmentReader reader = std::move(opened).value();
    while (const trace::TraceBlock* next = reader.Next()) {
      std::unique_ptr<trace::TraceBlock> block = AcquireBlock(lab_pools[lab]);
      *block = *next;
      collect_ring.Push({lab, false, std::move(block)});
    }
    if (reader.failed()) return fail(reader.error());
    run.AddDecodeStats(reader);
    collect_ring.Push({lab, true, nullptr});
  };
  // One lockstep window of shard `s`'s live labs.
  const auto step = [&](std::size_t s, util::SimTime until) {
    const auto t0 = Clock::now();
    obs::prof::PhaseScope prof_collect(obs::prof::Phase::kCollect);
    for (std::size_t lab = shards[s].lab_begin; lab < shards[s].lab_end;
         ++lab) {
      if (run.resumed[lab]) continue;
      if (!live[lab]) {
        // A window seals at most window_iterations iterations (plus the
        // budget-crossing one), so the working store never needs the
        // full block budget for short windows.
        const std::size_t count = fleet.labs()[lab].count;
        const std::size_t reserve =
            std::min(options.block_samples, (window_iterations + 1) * count) +
            count;
        // Sealed blocks stage through the lab's pool onto the ring; when
        // spilling, the sealer has already encoded them on this shard
        // thread, so compression never touches the merge thread.
        auto stage = [&collect_ring, &pool = lab_pools[lab],
                      lab](const trace::TraceStore& store) {
          obs::prof::PhaseScope prof_scope(obs::prof::Phase::kStage);
          std::unique_ptr<trace::TraceBlock> block = AcquireBlock(pool);
          block->AssignFrom(store);
          // false only when cancelled (error path)
          collect_ring.Push({lab, false, std::move(block)});
        };
        live[lab] = std::make_unique<SealedLab>(run, lab, reserve, stage);
        if (!live[lab]->sealer.error().empty()) {
          fail(live[lab]->sealer.error());
          continue;
        }
        live[lab]->collector.Begin();
      }
      SealedLab& lab_run = *live[lab];
      lab_run.collector.StepUntil(until);
      lab_run.sealer.SealPending();
      if (!lab_run.sealer.error().empty()) fail(lab_run.sealer.error());
    }
    shard_busy_s[s] += SecondsSince(t0);
  };
  // Per-lab finalisation: run stats, trailing seal, checkpoint sidecar,
  // end-of-stream marker.
  const auto finish = [&](std::size_t s) {
    const auto t0 = Clock::now();
    obs::prof::PhaseScope prof_collect(obs::prof::Phase::kCollect);
    for (std::size_t lab = shards[s].lab_begin; lab < shards[s].lab_end;
         ++lab) {
      if (run.resumed[lab]) continue;
      SealedLab& lab_run = *live[lab];
      if (!run.Commit(lab, lab_run.sealer, lab_run.collector.Finish())) {
        any_failed.store(true);
        continue;
      }
      collect_ring.Push({lab, true, nullptr});
    }
    shard_busy_s[s] += SecondsSince(t0);
  };
  {
    obs::Span collect_span("experiment.collect");
    collect_span.SetSimRange(0, horizon);
    // Written only by the barrier's completion step, which happens-before
    // every shard thread's return from arrive_and_wait. A failure ends the
    // lockstep after the current window; failed labs are never stepped
    // again.
    util::SimTime until = std::min(horizon, window_span);
    bool stop = false;
    std::barrier sync(static_cast<std::ptrdiff_t>(shards.size()),
                      [&]() noexcept {
                        stop = any_failed.load() || until >= horizon;
                        if (!stop) until = std::min(horizon, until + window_span);
                      });
    std::vector<std::jthread> shard_threads;
    shard_threads.reserve(shards.size());
    try {
      for (std::size_t s = 0; s < shards.size(); ++s) {
        shard_threads.emplace_back([&, s] {
          obs::Span shard_span("experiment.shard");
          shard_span.SetSimRange(0, horizon);
          obs::prof::ShardScope prof_shard(static_cast<std::uint32_t>(s));
          try {
            for (std::size_t lab = shards[s].lab_begin;
                 lab < shards[s].lab_end; ++lab) {
              if (run.resumed[lab]) replay(lab);
            }
            do {
              step(s, until);
              sync.arrive_and_wait();
            } while (!stop);
            if (!any_failed.load()) finish(s);
          } catch (...) {
            thrown[s] = std::current_exception();
            any_failed.store(true);
            // Thrown before arriving (`stop` cannot change until this
            // thread arrives): leave the barrier so the others stop.
            if (!stop) sync.arrive_and_drop();
          }
        });
      }
    } catch (...) {
      // A shard thread failed to start: stand in for the missing ones at
      // the barrier so the started ones stop after their first window.
      any_failed.store(true);
      for (std::size_t s = shard_threads.size(); s < shards.size(); ++s) {
        sync.arrive_and_drop();
      }
      throw;
    }
  }  // joins the shard threads

  // ---- Shutdown: end (or abort) the stream, join the merge. ----
  if (any_failed.load()) {
    collect_ring.Cancel();
  } else {
    collect_ring.Close();
  }
  merge_thread.join();
  for (const std::exception_ptr& error : thrown) {
    if (error) std::rethrow_exception(error);
  }

  const util::StagingRingStats ring = collect_ring.stats();
  pipe.staged_blocks = ring.pushed;
  pipe.ring_push_stalls = ring.push_stalls;
  pipe.ring_pop_stalls = ring.pop_stalls;
  pipe.ring_push_wait_s = static_cast<double>(ring.push_wait_ns) * 1e-9;
  pipe.ring_pop_wait_s = static_cast<double>(ring.pop_wait_ns) * 1e-9;
  pipe.ring_peak_occupancy = ring.peak_occupancy;
  pipe.ring_capacity = ring.capacity;
  for (const BlockPool& pool : lab_pools) {
    const BlockPool::Stats stats = pool.stats();
    pipe.arena_acquired += stats.acquired;
    pipe.arena_reused += stats.reused;
  }
  pipe.pipeline_wall_s = SecondsSince(loop_t0);

  // Shard imbalance: max shard busy time over the mean (1.0 = balanced).
  // Critical path: the run's wall time outside the overlapped
  // collect/merge region (fleet build, result set-up) — the serial work
  // that caps any shard-count speedup (Amdahl).
  double max_busy = 0.0;
  double sum_busy = 0.0;
  for (const double busy : shard_busy_s) {
    max_busy = std::max(max_busy, busy);
    sum_busy += busy;
  }
  const double mean_busy = sum_busy / static_cast<double>(shards.size());
  const double run_wall_s = SecondsSince(run_t0);
  obs::Registry& registry = obs::DefaultRegistry();
  registry
      .GetGauge("labmon_experiment_shard_imbalance_ratio",
                "Max shard wall time / mean shard wall time of the last "
                "sharded run (1.0 = perfectly balanced).")
      .Set(mean_busy > 0.0 ? max_busy / mean_busy : 1.0);
  registry
      .GetGauge("labmon_prof_critical_path_fraction",
                "Serial (non-sharded) share of the last experiment run's "
                "wall time: 0 = fully parallel, 1 = fully serial.")
      .Set(run_wall_s > 0.0
               ? std::max(0.0, run_wall_s - pipe.pipeline_wall_s) / run_wall_s
               : 0.0);
  return pipe;
}

}  // namespace detail

StreamingExperimentResult StreamingExperiment::Run(
    const ExperimentConfig& config, const StreamingOptions& options) {
  obs::DefaultRegistry()
      .GetCounter("labmon_streaming_runs_total",
                  "Streaming campaign runs executed.")
      .Increment();
  obs::Span run_span("experiment.stream");
  run_span.SetSimRange(0, config.campus.EndTime());
  const auto run_t0 = Clock::now();

  detail::CampaignRun run(config, options);
  const winsim::Fleet& fleet = run.campaign.fleet;
  StreamingExperimentResult result;
  result.days = config.campus.days;
  detail::FillFleetSummaries(result, fleet);
  analysis::StreamingAnalysisConfig fold_config;
  fold_config.machine_count = fleet.size();
  fold_config.perf_index = result.perf_index;
  for (const auto& lab : fleet.labs()) {
    fold_config.labs.push_back({lab.name, lab.first, lab.count});
  }
  fold_config.experiment_days = result.days;
  const std::unique_ptr<analysis::AnomalyDetector> detector =
      options.anomaly_threshold > 0.0
          ? std::make_unique<analysis::AnomalyDetector>(
                fleet.size(),
                analysis::AnomalyOptions{.threshold =
                                             options.anomaly_threshold},
                options.anomaly_writer)
          : nullptr;
  util::StagingRing<trace::TraceBlock> fold_ring(options.ring_capacity);
  util::RecyclingPool<trace::TraceBlock> merged_pool;
  // Merged by the loop's merge thread, which is joined before the fold
  // ring closes (the ring's mutex orders it for the fold thread).
  trace::MergeFrontier frontier(fleet.lab_count(), options.block_samples);
  // Fold-stage outputs, read by the main thread after the join.
  std::uint64_t stream_hash = trace::kSampleStreamHashSeed;
  analysis::StreamingAnalysisResult analysis_result;
  trace::TraceStore summary(fleet.size());
  bool fold_finished = false;
  std::exception_ptr fold_thrown;

  const auto pipe_t0 = Clock::now();
  std::jthread fold_thread([&] {
    try {
      // Built on this thread, so the per-machine fold state is allocated
      // while the shards already collect.
      analysis::StreamingAnalysis fold(std::move(fold_config));
      if (detector) fold.AttachAnomalyDetector(detector.get());
      stream_hash = fold.ConsumeRing(fold_ring, &merged_pool,
                                     trace::kSampleStreamHashSeed);
      if (fold_ring.cancelled() || !frontier.finished()) return;
      for (const trace::IterationInfo& info : frontier.iterations()) {
        summary.AppendIteration(info);
      }
      analysis_result = fold.Finish(summary);
      fold_finished = true;
    } catch (...) {
      // Rethrown after the join; cancelling also frees the merge thread
      // if it is parked on a full fold ring.
      fold_thrown = std::current_exception();
      fold_ring.Cancel();
    }
  });
  const CancelOnExit<trace::TraceBlock> cancel_fold{fold_ring};

  const auto emit = [&](trace::TraceBlock& sealed) {
    trace::TraceBlock out = merged_pool.Acquire();
    std::swap(out, sealed);
    fold_ring.Push(std::move(out));  // false only when cancelled
  };
  const PipelineStats loop = detail::RunLoop(
      run, frontier, emit, kStreamWindowIterations, run_t0);
  fold_ring.Close();
  fold_thread.join();
  if (fold_thrown) std::rethrow_exception(fold_thrown);
  const double pipeline_wall_s = SecondsSince(pipe_t0);

  result.errors = std::move(run.errors);
  result.spill = run.spill_stats;
  result.labs_resumed = run.labs_resumed;
  if (!result.errors.empty()) return result;
  if (!fold_finished) {
    result.errors.push_back("streaming run aborted before completion");
    return result;
  }

  // ---- Result assembly (serial tail). ----
  detail::InstallTotals(result, run.Total(), summary.iterations());
  result.summary = std::move(summary);
  result.analysis = std::move(analysis_result);
  result.samples = frontier.samples();
  result.merged_blocks = frontier.blocks();
  result.stream_hash = stream_hash;
  if (detector) {
    result.anomalies = detector->anomalies();
    result.anomaly_observations = detector->observations();
  }
  PublishSpillGauges(result.spill);

  // ---- Pipeline health: result struct + registry gauges. ----
  PipelineStats& pipe = result.pipeline;
  pipe = loop;
  const util::RecyclingPool<trace::TraceBlock>::Stats merged_stats =
      merged_pool.stats();
  pipe.arena_acquired += merged_stats.acquired;
  pipe.arena_reused += merged_stats.reused;
  pipe.arena_reuse_ratio =
      pipe.arena_acquired ? static_cast<double>(pipe.arena_reused) /
                                static_cast<double>(pipe.arena_acquired)
                          : 0.0;
  pipe.wall_s = SecondsSince(run_t0);
  // The overlapped region here includes the fold thread's tail.
  pipe.pipeline_wall_s = std::min(pipeline_wall_s, pipe.wall_s);
  pipe.serial_fraction =
      pipe.wall_s > 0.0
          ? std::max(0.0, pipe.wall_s - pipe.pipeline_wall_s) / pipe.wall_s
          : 0.0;
  const struct {
    const char* name;
    const char* help;
    double value;
  } gauges[] = {
      {"labmon_pipeline_ring_occupancy_peak",
       "Peak staging-ring occupancy (blocks) of the last streaming run.",
       static_cast<double>(pipe.ring_peak_occupancy)},
      {"labmon_pipeline_ring_push_stall_seconds_total",
       "Producer wall time spent parked on a full staging ring during the "
       "last streaming run.",
       pipe.ring_push_wait_s},
      {"labmon_pipeline_ring_pop_stall_seconds_total",
       "Merge wall time spent parked on an empty staging ring during the "
       "last streaming run.",
       pipe.ring_pop_wait_s},
      {"labmon_pipeline_merge_lag_blocks_peak",
       "Peak input blocks buffered in the merge frontier (merge lag behind "
       "collection) of the last streaming run.",
       static_cast<double>(pipe.merge_lag_peak_blocks)},
      {"labmon_pipeline_arena_reuse_ratio",
       "Fraction of block acquisitions served from recycling pools in the "
       "last streaming run.",
       pipe.arena_reuse_ratio},
      {"labmon_pipeline_serial_fraction",
       "Share of the last streaming run's wall time outside the overlapped "
       "collect/merge/fold region.",
       pipe.serial_fraction},
  };
  for (const auto& gauge : gauges) {
    obs::DefaultRegistry().GetGauge(gauge.name, gauge.help).Set(gauge.value);
  }

  util::log::Info(
      "streamed " + std::to_string(result.samples) + " samples in " +
      std::to_string(result.merged_blocks) + " merged blocks over " +
      std::to_string(result.run_stats.iterations) + " iterations (" +
      std::to_string(pipe.staged_blocks) + " staged blocks, serial fraction " +
      std::to_string(pipe.serial_fraction) + ")");
  return result;
}

}  // namespace labmon::core
