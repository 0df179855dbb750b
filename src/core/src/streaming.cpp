#include "labmon/core/streaming.hpp"

#include <utility>

#include "labmon/obs/prof.hpp"
#include "labmon/obs/registry.hpp"
#include "labmon/obs/span.hpp"
#include "labmon/trace/stream_merge.hpp"
#include "labmon/util/log.hpp"
#include "labmon/util/parallel.hpp"
#include "lab_run.hpp"

namespace labmon::core {

StreamingExperimentResult StreamingExperiment::Run(
    const ExperimentConfig& config, const StreamingOptions& options) {
  obs::DefaultRegistry()
      .GetCounter("labmon_streaming_runs_total",
                  "Streaming campaign runs executed.")
      .Increment();
  obs::Span run_span("experiment.stream");
  run_span.SetSimRange(0, config.campus.EndTime());

  detail::SealingRun run(config, options);
  if (!run.Prepare()) return std::move(run.result);
  const std::size_t lab_count = run.campaign.fleet.lab_count();
  const std::size_t machine_count = run.campaign.fleet.size();
  // In-memory mode keeps each lab's sealed blocks until the merge.
  std::vector<std::vector<trace::TraceBlock>> lab_blocks(lab_count);
  const std::size_t workers = detail::ClampWorkers(config.shards, lab_count);

  util::log::Info("streaming " + std::to_string(config.campus.days) +
                  "-day campaign over " + std::to_string(machine_count) +
                  " machines (" + std::to_string(workers) + " workers, " +
                  (run.spill ? "spill to " + options.spill_dir
                             : std::string("in-memory blocks")) +
                  (run.result.labs_resumed
                       ? ", " + std::to_string(run.result.labs_resumed) +
                             " labs resumed"
                       : "") +
                  ")");

  {
    obs::Span collect_span("experiment.stream_collect");
    collect_span.SetSimRange(0, config.campus.EndTime());
    auto run_lab = [&](std::size_t lab) {
      if (run.resumed[lab]) return;
      obs::prof::ShardScope prof_shard(static_cast<std::uint32_t>(lab));
      obs::prof::PhaseScope prof_collect(obs::prof::Phase::kCollect);
      detail::BlockSealer::Publish keep;
      if (!run.spill) {
        keep = [&blocks = lab_blocks[lab]](const trace::TraceStore& store) {
          blocks.emplace_back().AssignFrom(store);
        };
      }
      // An iteration appends at most one sample per lab machine, and the
      // store is sealed at the first iteration end past the budget.
      const std::size_t reserve =
          options.block_samples + run.campaign.fleet.labs()[lab].count;
      detail::SealedLab live(run, lab, reserve, std::move(keep));
      if (!live.sealer.error().empty()) {
        run.Fail(live.sealer.error());
        return;
      }
      run.Commit(lab, live.sealer, live.collector.Run());
    };
    util::ParallelFor(lab_count, run_lab, workers);
  }
  if (!run.result.errors.empty()) return std::move(run.result);

  // Merge + fold: re-stream every lab, merge iteration-major and fold the
  // merged blocks into the incremental analysis as they seal. The stream
  // hash fingerprints the merged sample sequence for determinism checks.
  trace::StreamMergeResult merged;
  std::uint64_t stream_hash = trace::kSampleStreamHashSeed;
  {
    obs::Span merge_span("experiment.stream_merge");
    obs::prof::PhaseScope prof_merge(obs::prof::Phase::kMerge);
    std::vector<trace::SegmentReader> segment_readers;
    std::vector<trace::BlockVectorReader> block_readers;
    std::vector<trace::TraceReader*> parts;
    parts.reserve(lab_count);
    if (run.spill) {
      segment_readers.reserve(lab_count);
      for (std::size_t lab = 0; lab < lab_count; ++lab) {
        auto opened = trace::SegmentReader::Open(
            detail::SegmentPath(options.spill_dir, lab));
        if (!opened.ok()) {
          run.Fail(opened.error());
          return std::move(run.result);
        }
        segment_readers.push_back(std::move(opened).value());
      }
      for (auto& reader : segment_readers) parts.push_back(&reader);
    } else {
      block_readers.reserve(lab_count);
      for (std::size_t lab = 0; lab < lab_count; ++lab) {
        block_readers.emplace_back(lab_blocks[lab]);
      }
      for (auto& reader : block_readers) parts.push_back(&reader);
    }

    merged = trace::StreamMergeBlocks(
        parts, machine_count, options.block_samples,
        [&](const trace::TraceBlock& block) {
          stream_hash = trace::HashBlockSamples(stream_hash, block);
          run.fold.Accept(block);
        });
    for (auto& reader : segment_readers) {
      if (reader.failed()) run.Fail(reader.error());
    }
    if (!run.result.errors.empty()) return std::move(run.result);
    for (const auto& reader : segment_readers) run.AddDecodeStats(reader);
  }

  trace::TraceStore summary =
      detail::SummaryStore(machine_count, merged.iterations);
  analysis::StreamingAnalysisResult analysis = run.fold.Finish(summary);
  run.Finish(std::move(summary), std::move(analysis), merged.samples,
             merged.blocks, stream_hash);
  util::log::Info("streamed " + std::to_string(run.result.samples) +
                  " samples in " + std::to_string(run.result.merged_blocks) +
                  " merged blocks over " +
                  std::to_string(run.result.run_stats.iterations) +
                  " iterations");
  return std::move(run.result);
}

}  // namespace labmon::core
