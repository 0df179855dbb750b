// Streaming deterministic merge — MergeTraces over block streams.
//
// Consumes one TraceReader per part (lab), each iteration-major and
// iteration-aligned (collection blocks), and replays MergeTraces' exact
// merge order — per global iteration: gather every part's samples, sort by
// (t, machine), append — without ever materialising a whole part or the
// merged trace. Sealed merged blocks (block-local user tables, no
// iteration rows) are handed to the sink as they fill; merged
// IterationInfo metadata is returned, since it is O(iterations) and every
// downstream consumer (analysis finalise, run stats) needs it resident
// anyway. The emitted sample sequence is bit-identical to
// MergeTraces(parts) — pinned by HashSampleStream in tests.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "labmon/trace/block.hpp"
#include "labmon/util/function_ref.hpp"

namespace labmon::trace {

struct StreamMergeResult {
  std::vector<IterationInfo> iterations;
  std::uint64_t samples = 0;
  std::uint64_t blocks = 0;
};

/// Merges the part streams; calls `sink` once per sealed merged block (and
/// once for the final partial block, if non-empty). Readers must be fresh
/// (or Reset); reader-level IO failures end that part's stream early —
/// callers owning SegmentReaders must check their failed() afterwards.
/// `machine_count` is unused (merged blocks carry no machine count); it
/// stays in the signature for existing callers.
StreamMergeResult StreamMergeBlocks(
    std::span<TraceReader* const> parts, std::size_t machine_count,
    std::size_t block_samples,
    util::FunctionRef<void(const TraceBlock&)> sink);

}  // namespace labmon::trace
