#include "labmon/trace/stream_merge.hpp"

#include <memory>

#include "labmon/obs/prof.hpp"
#include "labmon/trace/merge_frontier.hpp"

namespace labmon::trace {

// Pull-model adapter over MergeFrontier: feed each reader's current block
// as a borrowed view, advance until the frontier stalls, pull the stalled
// part's next block. A part never buffers more than one view at a time, so
// the reader's scratch block stays valid exactly as long as the frontier
// references it (its rows are appended before Advance returns).
StreamMergeResult StreamMergeBlocks(
    std::span<TraceReader* const> parts, std::size_t /*machine_count*/,
    std::size_t block_samples,
    util::FunctionRef<void(const TraceBlock&)> sink) {
  obs::prof::PhaseScope prof_scope(obs::prof::Phase::kMerge);
  StreamMergeResult result;
  if (parts.empty()) return result;

  MergeFrontier frontier(parts.size(), block_samples);
  const auto feed = [&](std::size_t p) {
    if (const TraceBlock* block = parts[p]->Next(); block != nullptr) {
      frontier.AppendView(p, block);
    } else {
      frontier.FinishPart(p);
    }
  };
  for (std::size_t p = 0; p < parts.size(); ++p) feed(p);

  const auto emit = [&](TraceBlock& block) { sink(block); };
  const auto drop = [](std::size_t, std::unique_ptr<TraceBlock>) {};
  while (!frontier.finished()) {
    frontier.Advance(emit, drop);
    if (frontier.finished()) break;
    feed(frontier.stalled_part());
  }

  result.iterations = frontier.TakeIterations();
  result.samples = frontier.samples();
  result.blocks = frontier.blocks();
  return result;
}

}  // namespace labmon::trace
