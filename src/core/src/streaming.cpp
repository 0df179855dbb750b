// StreamingExperiment — collection, merge and analysis fold run
// concurrently.
//
// Thread structure of one run:
//
//   shard workers (ParallelFor, one pass per lockstep window)
//       │  seal iteration-aligned blocks at window boundaries
//       ▼     (resumed labs: a replay thread decodes their segments)
//   collect ring (bounded MPSC StagingRing<StagedBlock>)
//       │  merge thread: drain → MergeFrontier::Advance
//       ▼
//   fold ring (StagingRing<TraceBlock>, merged blocks)
//       │  fold thread: StreamingAnalysis::ConsumeRing (hash + Accept)
//       ▼
//   StreamingAnalysisResult + stream hash
//
// Every lab is advanced through window w before any lab starts w+1
// (the Begin/StepUntil/Finish of detail::LabRun, the per-lab slice both
// engines share, keeps the probe/fault sequence bit-identical to one
// Run() call), so after each window the merge
// frontier holds complete iteration fronts and emits merged blocks while
// later windows are still simulating. Block buffers recycle backwards:
// the frontier hands consumed collection blocks to per-shard pools the
// sealers draw from, and the fold returns emptied merged blocks to the
// emitter's pool — steady-state block traffic allocates nothing.
//
// Shutdown discipline (no path may deadlock): the merge thread drains the
// collect ring unconditionally, the fold thread drains the fold ring
// unconditionally, so producers can never park forever on a full ring.
// On error the rings are cancelled, which wakes every parked thread with
// `false`; a scope guard declared after the worker threads cancels both
// rings during unwind so the jthread joins always complete.
#include <algorithm>
#include <atomic>
#include <chrono>
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

/// Per-shard arena: sealers acquire heap blocks here, the merge returns
/// them once consumed. Acquire() yields a null pointer when the pool is
/// empty (counted as an allocation) — the caller falls back to new.
using BlockPool = util::RecyclingPool<std::unique_ptr<trace::TraceBlock>>;

std::unique_ptr<trace::TraceBlock> AcquireBlock(BlockPool& pool) {
  std::unique_ptr<trace::TraceBlock> block = pool.Acquire();
  return block ? std::move(block) : std::make_unique<trace::TraceBlock>();
}

/// Lockstep window length in collection periods: every lab is advanced
/// through window w before any lab starts w+1, so complete iteration
/// fronts reach the merge while later windows are still simulating.
/// Output-invariant (any ascending window partition is bit-identical).
constexpr std::size_t kWindowIterations = 16;

}  // namespace

StreamingExperimentResult StreamingExperiment::Run(
    const ExperimentConfig& config, const StreamingOptions& options) {
  obs::DefaultRegistry()
      .GetCounter("labmon_streaming_runs_total",
                  "Streaming campaign runs executed.")
      .Increment();
  obs::Span run_span("experiment.stream");
  run_span.SetSimRange(0, config.campus.EndTime());
  const auto run_t0 = Clock::now();

  detail::SealingRun run(config, options);
  if (!run.Prepare()) return std::move(run.result);
  StreamingExperimentResult& result = run.result;
  const winsim::Fleet& fleet = run.campaign.fleet;
  const std::size_t lab_count = fleet.lab_count();
  const std::size_t machine_count = fleet.size();
  const util::SimTime horizon = config.campus.EndTime();

  const std::vector<LabShard> shards = PartitionLabsByMachines(
      fleet, detail::ClampWorkers(config.shards, lab_count));
  std::vector<std::size_t> shard_of_lab(lab_count, 0);
  for (std::size_t s = 0; s < shards.size(); ++s) {
    for (std::size_t lab = shards[s].lab_begin; lab < shards[s].lab_end;
         ++lab) {
      shard_of_lab[lab] = s;
    }
  }
  const bool any_live = result.labs_resumed < lab_count;

  const util::SimTime period =
      config.collector.period > 0 ? config.collector.period : horizon;
  const util::SimTime window_span =
      static_cast<util::SimTime>(kWindowIterations) * period;

  util::log::Info(
      "streaming " + std::to_string(config.campus.days) +
      "-day campaign over " + std::to_string(machine_count) + " machines (" +
      std::to_string(shards.size()) + " shards, window " +
      std::to_string(kWindowIterations) + " iterations, ring " +
      std::to_string(options.ring_capacity) + " blocks" +
      (run.spill ? ", spill to " + options.spill_dir
                 : std::string(", in-memory blocks")) +
      (result.labs_resumed
           ? ", " + std::to_string(result.labs_resumed) + " labs resumed"
           : "") +
      ")");

  // Pipeline plumbing. Declared before the worker threads (which capture
  // everything by reference) and destroyed after them.
  util::StagingRing<StagedBlock> collect_ring(options.ring_capacity);
  util::StagingRing<trace::TraceBlock> fold_ring(options.ring_capacity);
  std::vector<std::unique_ptr<BlockPool>> shard_pools;
  shard_pools.reserve(shards.size());
  for (std::size_t s = 0; s < shards.size(); ++s) {
    shard_pools.push_back(std::make_unique<BlockPool>());
  }
  util::RecyclingPool<trace::TraceBlock> merged_pool;

  std::vector<std::unique_ptr<detail::SealedLab>> live(lab_count);
  std::atomic<bool> any_failed{false};
  const auto fail = [&](std::string message) {
    run.Fail(std::move(message));
    any_failed.store(true);
  };
  std::vector<double> shard_busy_s(shards.size(), 0.0);

  // Merge-stage outputs, written by the merge thread before it closes the
  // fold ring (the ring's mutex orders them for the fold thread) and read
  // by the main thread after the joins.
  std::vector<trace::IterationInfo> merged_iterations;
  std::uint64_t merged_samples = 0;
  std::uint64_t merged_blocks = 0;
  std::size_t merge_lag_peak = 0;
  bool merge_clean = false;

  // Fold-stage outputs, read by the main thread after the joins.
  std::uint64_t stream_hash = trace::kSampleStreamHashSeed;
  analysis::StreamingAnalysisResult analysis_result;
  trace::TraceStore summary_store;
  bool fold_finished = false;

  const std::size_t sort_workers_max = std::max<std::size_t>(
      1, options.merge_sort_workers > 0
             ? options.merge_sort_workers
             : std::min<std::size_t>(4, util::DefaultWorkerCount()));

  const auto pipe_t0 = Clock::now();

  std::jthread merge_thread([&] {
    trace::MergeFrontier frontier(lab_count, machine_count,
                                  options.block_samples);
    const auto emit = [&](trace::TraceBlock& sealed) {
      trace::TraceBlock out = merged_pool.Acquire();
      std::swap(out, sealed);
      fold_ring.Push(std::move(out));  // false only when cancelled
    };
    const auto recycle = [&](std::size_t part,
                             std::unique_ptr<trace::TraceBlock> block) {
      block->Clear();
      shard_pools[shard_of_lab[part]]->Release(std::move(block));
    };
    StagedBlock item;
    for (;;) {
      bool got = false;
      {
        obs::prof::PhaseScope prof_stage(obs::prof::Phase::kStage);
        got = collect_ring.Pop(item);
      }
      if (!got) break;
      if (item.final_block) {
        frontier.FinishPart(item.lab);
      } else {
        frontier.Append(item.lab, std::move(item.block));
      }
      merge_lag_peak = std::max(merge_lag_peak, frontier.buffered_blocks());
      // Escalate to parallel per-front sorts when the ring backs up —
      // output-invariant, it only changes who sorts which ready front.
      const std::size_t sort_workers =
          collect_ring.size() * 2 >= collect_ring.capacity()
              ? sort_workers_max
              : 1;
      obs::prof::PhaseScope prof_merge(obs::prof::Phase::kMerge);
      frontier.Advance(emit, recycle, sort_workers);
    }
    if (!collect_ring.cancelled()) {
      if (!frontier.finished()) {
        obs::prof::PhaseScope prof_merge(obs::prof::Phase::kMerge);
        frontier.Advance(emit, recycle, 1);
      }
      if (frontier.finished()) {
        merged_iterations = frontier.TakeIterations();
        merged_samples = frontier.samples();
        merged_blocks = frontier.blocks();
        merge_clean = true;
      } else {
        run.Fail("streaming merge ended with incomplete lab streams");
      }
    }
    fold_ring.Close();
  });

  std::jthread fold_thread([&] {
    stream_hash = run.fold.ConsumeRing(fold_ring, &merged_pool,
                                       trace::kSampleStreamHashSeed);
    // merge_clean was written before fold_ring.Close(), which happens-
    // before ConsumeRing's final (false) Pop.
    if (!merge_clean || fold_ring.cancelled()) return;
    summary_store = detail::SummaryStore(machine_count, merged_iterations);
    analysis_result = run.fold.Finish(summary_store);
    fold_finished = true;
  });

  // Resumed labs replay their spilled segments into the ring from a
  // dedicated reader thread, concurrent with live simulation.
  std::jthread replay_thread;
  if (result.labs_resumed > 0) {
    replay_thread = std::jthread([&] {
      obs::prof::PhaseScope prof_stage(obs::prof::Phase::kStage);
      for (std::size_t lab = 0; lab < lab_count; ++lab) {
        if (!run.resumed[lab]) continue;
        auto opened = trace::SegmentReader::Open(
            detail::SegmentPath(options.spill_dir, lab));
        if (!opened.ok()) {
          fail(opened.error());
          continue;
        }
        trace::SegmentReader reader = std::move(opened).value();
        BlockPool& pool = *shard_pools[shard_of_lab[lab]];
        while (const trace::TraceBlock* next = reader.Next()) {
          std::unique_ptr<trace::TraceBlock> block = AcquireBlock(pool);
          *block = *next;
          if (!collect_ring.Push({lab, false, std::move(block)})) return;
        }
        if (reader.failed()) {
          fail(reader.error());
          continue;
        }
        run.AddDecodeStats(reader);
        if (!collect_ring.Push({lab, true, nullptr})) return;  // cancelled
      }
    });
  }

  // Unwind safety: cancelling both rings wakes every parked thread, so the
  // jthread destructors above can always join. Declared after the threads
  // so it runs first during stack unwinding; on the normal path both rings
  // are already closed and drained by the time it fires.
  struct CancelGuard {
    util::StagingRing<StagedBlock>* collect;
    util::StagingRing<trace::TraceBlock>* fold;
    ~CancelGuard() {
      collect->Cancel();
      fold->Cancel();
    }
  } cancel_guard{&collect_ring, &fold_ring};

  // ---- Producer side: lockstep windows over the shard groups. ----
  {
    obs::Span collect_span("experiment.stream_collect");
    collect_span.SetSimRange(0, horizon);
    auto run_window = [&](std::size_t s, util::SimTime until) {
      const auto t0 = Clock::now();
      obs::prof::ShardScope prof_shard(static_cast<std::uint32_t>(s));
      obs::prof::PhaseScope prof_collect(obs::prof::Phase::kCollect);
      for (std::size_t lab = shards[s].lab_begin; lab < shards[s].lab_end;
           ++lab) {
        if (run.resumed[lab]) continue;
        if (!live[lab]) {
          // A window seals at most kWindowIterations iterations (plus the
          // budget-crossing one), so the working store never needs the
          // full block budget for short windows.
          const std::size_t count = fleet.labs()[lab].count;
          const std::size_t reserve =
              std::min(options.block_samples,
                       (kWindowIterations + 1) * count) +
              count;
          // Sealed blocks stage through the shard's pool onto the ring;
          // when spilling, the sealer has already encoded them on this
          // shard worker, so compression never touches the merge thread.
          auto stage = [&collect_ring, &pool = *shard_pools[s],
                        lab](const trace::TraceStore& store) {
            obs::prof::PhaseScope prof_scope(obs::prof::Phase::kStage);
            std::unique_ptr<trace::TraceBlock> block = AcquireBlock(pool);
            block->AssignFrom(store);
            // false only when cancelled (error path)
            collect_ring.Push({lab, false, std::move(block)});
          };
          live[lab] = std::make_unique<detail::SealedLab>(run, lab, reserve,
                                                          stage);
          if (!live[lab]->sealer.error().empty()) {
            fail(live[lab]->sealer.error());
            continue;
          }
          live[lab]->collector.Begin();
        }
        detail::SealedLab& lab_run = *live[lab];
        lab_run.collector.StepUntil(until);
        lab_run.sealer.SealPending();
        if (!lab_run.sealer.error().empty()) fail(lab_run.sealer.error());
      }
      shard_busy_s[s] += SecondsSince(t0);
    };

    // A failure ends the lockstep after the current window; failed labs
    // are never stepped again.
    for (util::SimTime window = 0; any_live && window < horizon;
         window += window_span) {
      if (any_failed.load()) break;
      const util::SimTime until =
          std::min<util::SimTime>(horizon, window + window_span);
      util::ParallelFor(
          shards.size(), [&](std::size_t s) { run_window(s, until); },
          shards.size());
    }

    // Per-lab finalisation: run stats, trailing seal, checkpoint sidecar,
    // end-of-stream marker.
    if (any_live && !any_failed.load()) {
      auto finish_shard = [&](std::size_t s) {
        const auto t0 = Clock::now();
        obs::prof::ShardScope prof_shard(static_cast<std::uint32_t>(s));
        obs::prof::PhaseScope prof_collect(obs::prof::Phase::kCollect);
        for (std::size_t lab = shards[s].lab_begin; lab < shards[s].lab_end;
             ++lab) {
          if (run.resumed[lab] || !live[lab]) continue;
          detail::SealedLab& lab_run = *live[lab];
          if (!run.Commit(lab, lab_run.sealer, lab_run.collector.Finish())) {
            any_failed.store(true);
            continue;
          }
          collect_ring.Push({lab, true, nullptr});
        }
        shard_busy_s[s] += SecondsSince(t0);
      };
      util::ParallelFor(shards.size(), finish_shard, shards.size());
    }
  }

  // ---- Shutdown: end (or abort) the streams, join the stages. ----
  if (any_failed.load()) collect_ring.Cancel();
  if (replay_thread.joinable()) replay_thread.join();
  if (any_failed.load()) {
    collect_ring.Cancel();
  } else {
    collect_ring.Close();
  }
  merge_thread.join();
  fold_thread.join();
  const double pipeline_wall_s = SecondsSince(pipe_t0);

  if (!result.errors.empty()) return std::move(result);
  if (!merge_clean || !fold_finished) {
    result.errors.push_back("streaming run aborted before completion");
    return std::move(result);
  }

  // ---- Result assembly (serial tail). ----
  run.Finish(std::move(summary_store), std::move(analysis_result),
             merged_samples, merged_blocks, stream_hash);

  // ---- Pipeline health: result struct + registry gauges. ----
  const util::StagingRingStats ring_stats = collect_ring.stats();
  PipelineStats& pipe = result.pipeline;
  pipe.staged_blocks = ring_stats.pushed;
  pipe.ring_push_stalls = ring_stats.push_stalls;
  pipe.ring_pop_stalls = ring_stats.pop_stalls;
  pipe.ring_push_wait_s =
      static_cast<double>(ring_stats.push_wait_ns) * 1e-9;
  pipe.ring_pop_wait_s = static_cast<double>(ring_stats.pop_wait_ns) * 1e-9;
  pipe.ring_peak_occupancy = ring_stats.peak_occupancy;
  pipe.ring_capacity = ring_stats.capacity;
  pipe.merge_lag_peak_blocks = merge_lag_peak;
  {
    util::RecyclingPool<trace::TraceBlock>::Stats merged_stats =
        merged_pool.stats();
    pipe.arena_acquired = merged_stats.acquired;
    pipe.arena_reused = merged_stats.reused;
    for (const auto& pool : shard_pools) {
      const BlockPool::Stats stats = pool->stats();
      pipe.arena_acquired += stats.acquired;
      pipe.arena_reused += stats.reused;
    }
    pipe.arena_reuse_ratio =
        pipe.arena_acquired ? static_cast<double>(pipe.arena_reused) /
                                  static_cast<double>(pipe.arena_acquired)
                            : 0.0;
  }
  pipe.wall_s = SecondsSince(run_t0);
  pipe.pipeline_wall_s = std::min(pipeline_wall_s, pipe.wall_s);
  pipe.serial_fraction =
      pipe.wall_s > 0.0
          ? std::max(0.0, pipe.wall_s - pipe.pipeline_wall_s) / pipe.wall_s
          : 0.0;

  obs::Registry& registry = obs::DefaultRegistry();
  registry
      .GetGauge("labmon_pipeline_ring_occupancy_peak",
                "Peak staging-ring occupancy (blocks) of the last streaming "
                "run.")
      .Set(static_cast<double>(pipe.ring_peak_occupancy));
  registry
      .GetGauge("labmon_pipeline_ring_push_stall_seconds_total",
                "Producer wall time spent parked on a full staging ring "
                "during the last streaming run.")
      .Set(pipe.ring_push_wait_s);
  registry
      .GetGauge("labmon_pipeline_ring_pop_stall_seconds_total",
                "Merge wall time spent parked on an empty staging ring "
                "during the last streaming run.")
      .Set(pipe.ring_pop_wait_s);
  registry
      .GetGauge("labmon_pipeline_merge_lag_blocks_peak",
                "Peak input blocks buffered in the merge frontier (merge "
                "lag behind collection) of the last streaming run.")
      .Set(static_cast<double>(pipe.merge_lag_peak_blocks));
  registry
      .GetGauge("labmon_pipeline_arena_reuse_ratio",
                "Fraction of block acquisitions served from recycling "
                "pools in the last streaming run.")
      .Set(pipe.arena_reuse_ratio);
  registry
      .GetGauge("labmon_pipeline_serial_fraction",
                "Share of the last streaming run's wall time outside the "
                "overlapped collect/merge/fold region.")
      .Set(pipe.serial_fraction);
  registry
      .GetGauge("labmon_prof_critical_path_fraction",
                "Serial (non-sharded) share of the last experiment run's "
                "wall time: 0 = fully parallel, 1 = fully serial.")
      .Set(pipe.serial_fraction);
  {
    double max_busy = 0.0;
    double sum_busy = 0.0;
    for (const double busy : shard_busy_s) {
      max_busy = std::max(max_busy, busy);
      sum_busy += busy;
    }
    const double mean_busy =
        shard_busy_s.empty()
            ? 0.0
            : sum_busy / static_cast<double>(shard_busy_s.size());
    registry
        .GetGauge("labmon_experiment_shard_imbalance_ratio",
                  "Max shard wall time / mean shard wall time of the last "
                  "sharded run (1.0 = perfectly balanced).")
        .Set(mean_busy > 0.0 ? max_busy / mean_busy : 1.0);
  }

  util::log::Info(
      "streamed " + std::to_string(result.samples) + " samples in " +
      std::to_string(result.merged_blocks) + " merged blocks over " +
      std::to_string(result.run_stats.iterations) + " iterations (" +
      std::to_string(pipe.staged_blocks) + " staged blocks, serial fraction " +
      std::to_string(pipe.serial_fraction) + ")");
  return std::move(result);
}

}  // namespace labmon::core
