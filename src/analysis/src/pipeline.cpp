#include "labmon/analysis/pipeline.hpp"

#include <algorithm>
#include <chrono>

#include "labmon/obs/prof.hpp"
#include "labmon/util/parallel.hpp"

namespace labmon::analysis {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

AnalysisPass& AnalysisPipeline::Add(std::unique_ptr<AnalysisPass> pass) {
  passes_.push_back(std::move(pass));
  return *passes_.back();
}

PipelineRunStats AnalysisPipeline::Run(const trace::DerivedTrace& derived) {
  obs::Span run_span("analysis.pipeline.run");
  const PassContext ctx{derived.trace(), derived};

  PipelineRunStats stats;
  stats.machines = ctx.trace.machine_count();
  const std::size_t per_chunk =
      std::max<std::size_t>(1, options_.machines_per_chunk);
  stats.chunks = (stats.machines + per_chunk - 1) / per_chunk;
  stats.workers =
      options_.workers == 0 ? util::DefaultWorkerCount() : options_.workers;
  stats.passes.resize(passes_.size());
  for (std::size_t p = 0; p < passes_.size(); ++p) {
    stats.passes[p].name = std::string(passes_[p]->name());
  }

  // Parallel sweep: per chunk, one state per pass; each machine's data is
  // fed to every pass while it is cache-hot.
  std::vector<std::vector<std::unique_ptr<AnalysisPass::State>>> states(
      stats.chunks);
  std::vector<std::vector<double>> chunk_pass_seconds(
      stats.chunks, std::vector<double>(passes_.size(), 0.0));
  {
    obs::Span sweep_span("analysis.pipeline.sweep");
    const auto sweep_start = Clock::now();
    util::ParallelFor(
        stats.chunks,
        [&](std::size_t c) {
          auto& chunk_states = states[c];
          chunk_states.reserve(passes_.size());
          for (const auto& pass : passes_) {
            chunk_states.push_back(pass->MakeState(ctx));
          }
          const std::size_t begin = c * per_chunk;
          const std::size_t end =
              std::min(begin + per_chunk, stats.machines);
          for (std::size_t m = begin; m < end; ++m) {
            for (std::size_t p = 0; p < passes_.size(); ++p) {
              const auto pass_start = Clock::now();
              passes_[p]->AccumulateMachine(ctx, m, *chunk_states[p]);
              chunk_pass_seconds[c][p] += SecondsSince(pass_start);
            }
          }
        },
        options_.workers);
    stats.sweep_seconds = SecondsSince(sweep_start);
  }

  // Serial reduction in ascending chunk order — the association is fixed
  // by the chunk grid, never by the worker count.
  {
    obs::Span merge_span("analysis.pipeline.merge");
    const auto merge_start = Clock::now();
    for (std::size_t p = 0; p < passes_.size(); ++p) {
      const auto pass_start = Clock::now();
      auto total = passes_[p]->MakeState(ctx);
      for (std::size_t c = 0; c < stats.chunks; ++c) {
        passes_[p]->MergeState(*total, *states[c][p]);
      }
      passes_[p]->Finalize(ctx, *total);
      stats.passes[p].finalize_seconds = SecondsSince(pass_start);
      for (std::size_t c = 0; c < stats.chunks; ++c) {
        stats.passes[p].accumulate_seconds += chunk_pass_seconds[c][p];
      }
    }
    stats.merge_seconds = SecondsSince(merge_start);
  }

  if (options_.metrics != nullptr) {
    auto& metrics = *options_.metrics;
    metrics
        .GetCounter("labmon_analysis_pipeline_runs_total",
                    "AnalysisPipeline::Run invocations")
        .Increment();
    metrics
        .GetCounter("labmon_analysis_pipeline_machines_total",
                    "Machines swept by the analysis pipeline")
        .Increment(stats.machines);
    metrics
        .GetGauge("labmon_analysis_pipeline_workers",
                  "Worker threads of the last pipeline sweep")
        .Set(static_cast<double>(stats.workers));
    metrics
        .GetGauge("labmon_analysis_pipeline_sweep_seconds",
                  "Wall seconds of the last pipeline sweep")
        .Set(stats.sweep_seconds);
    for (const auto& timing : stats.passes) {
      metrics
          .GetCounter("labmon_analysis_pass_us_total",
                      "Per-pass accumulate CPU-time, microseconds",
                      {{"pass", timing.name}})
          .Increment(static_cast<std::uint64_t>(
              timing.accumulate_seconds * 1e6));
    }
  }
  return stats;
}

}  // namespace labmon::analysis
