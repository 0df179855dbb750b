// MergeFrontier — the incremental, push-model core of the streaming merge.
//
// StreamMergeBlocks (stream_merge.hpp) pulls blocks from readers; the
// streaming engine instead *pushes* blocks as labs seal them, out of lab
// order, and wants merged output as soon as an iteration front is ready —
// an iteration front is complete when every live part has either buffered
// content covering that iteration or finished its stream. MergeFrontier
// is that state machine: Append()/FinishPart() feed it, Advance() merges
// every ready front (replaying MergeTraces' exact order: per global
// iteration, gather all parts' samples, sort by (t, machine), append) and
// emits sealed merged blocks. Both StreamMergeBlocks and the streaming
// engine are built on it, so the merged sample sequence is bit-identical
// to MergeTraces' by construction.
//
// Ready fronts are gathered in batches; when more than one front is ready
// (the staging ring backed up while the merge was busy) the per-front key
// sorts run in parallel via util::ParallelFor — sorting is the only
// commutative step, appending stays strictly front-ordered. (t, machine)
// keys are unique within a front, so the sort order — and thus the output
// — is identical however the sorting is scheduled.
//
// Buffered blocks are either owned (heap TraceBlocks, handed back through
// the recycle callback once fully consumed — the streaming engine returns
// them to per-shard pools) or borrowed views (the pull model's reader
// scratch, valid until the caller invalidates it after Advance returns).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "labmon/trace/block.hpp"
#include "labmon/util/function_ref.hpp"

namespace labmon::trace {

class MergeFrontier {
 public:
  /// Sealed merged block consumer. The block reference stays owned by the
  /// frontier but the callee may swap its contents away (e.g. with a
  /// cleared pooled block) — the frontier clears and reuses it afterwards.
  using EmitFn = util::FunctionRef<void(TraceBlock&)>;
  /// Receives fully-consumed owned blocks for recycling (never views).
  using RecycleFn =
      util::FunctionRef<void(std::size_t part, std::unique_ptr<TraceBlock>)>;

  MergeFrontier(std::size_t part_count, std::size_t machine_count,
                std::size_t block_samples);

  /// Buffers the next owned block of `part`. Blocks of one part must
  /// arrive in that part's stream order; parts interleave arbitrarily.
  void Append(std::size_t part, std::unique_ptr<TraceBlock> block);
  /// Buffers a borrowed block. The pointer must stay valid until after
  /// the Advance() call that consumes the block's last row returns.
  void AppendView(std::size_t part, const TraceBlock* block);
  /// Marks `part`'s stream complete (no further Append for it).
  void FinishPart(std::size_t part);

  /// Merges every iteration front the buffered streams can complete,
  /// sealing merged blocks into `emit` and handing consumed owned blocks
  /// to `recycle`. With `sort_workers` > 1 and several ready fronts, the
  /// per-front key sorts run in parallel. Returns the number of fronts
  /// merged. After the last part finishes, the trailing partial block is
  /// flushed and finished() turns true.
  std::size_t Advance(EmitFn emit, RecycleFn recycle,
                      std::size_t sort_workers = 1);

  /// True once every part finished and the merged stream is fully emitted.
  [[nodiscard]] bool finished() const noexcept { return finished_; }
  /// The part the last Advance() stalled on (meaningful when Advance
  /// returned without finishing): its next block unblocks the merge.
  [[nodiscard]] std::size_t stalled_part() const noexcept {
    return stalled_part_;
  }
  /// Input blocks currently buffered (the merge lag behind collection).
  [[nodiscard]] std::size_t buffered_blocks() const noexcept {
    return buffered_blocks_;
  }
  /// Merged iteration metadata accumulated so far.
  [[nodiscard]] const std::vector<IterationInfo>& iterations() const noexcept {
    return iterations_;
  }
  /// Moves the accumulated iteration metadata out (call once, after
  /// finished()).
  [[nodiscard]] std::vector<IterationInfo> TakeIterations() noexcept {
    return std::move(iterations_);
  }
  [[nodiscard]] std::uint64_t samples() const noexcept { return samples_; }
  [[nodiscard]] std::uint64_t blocks() const noexcept { return blocks_; }

 private:
  struct Slot {
    std::unique_ptr<TraceBlock> owned;  ///< null for borrowed views
    const TraceBlock* view = nullptr;   ///< always valid while buffered
  };
  struct Part {
    std::deque<Slot> slots;
    std::size_t idx = 0;     ///< sample cursor within the head block
    std::size_t it_idx = 0;  ///< iteration cursor within the head block
    bool done = false;
  };
  /// A staged sample row: sort key + source location. `src` is stable for
  /// the whole batch (heap block or caller-held view); consumed slots are
  /// retired only after the batch's append phase.
  struct Key {
    std::int64_t t;
    std::uint32_t machine;
    const TraceBlock* src;
    std::uint32_t idx;
  };
  enum class Scan : std::uint8_t { kReady, kStalled, kExhausted };

  /// Pops fully-consumed head blocks of `part` onto the retired list.
  void RetireExhausted(std::size_t part);
  /// Checks whether the next front is decidable with the buffered state.
  Scan CheckReady();
  /// Gathers the next front's keys into batch_keys_ (consuming cursors);
  /// records the key range and the front's IterationInfo (if any).
  void GatherFront();
  void Seal(EmitFn emit);

  std::vector<Part> parts_;
  const std::size_t block_samples_;
  TraceStore builder_;
  TraceBlock sealed_;

  std::uint64_t next_front_ = 0;
  // Readiness scan state, persisted across stalls: parts below scan_pos_
  // are verified ready for front next_front_ (Append never revokes
  // readiness, so a stalled scan resumes where it left off).
  std::size_t scan_pos_ = 0;
  bool scan_content_ = false;
  std::size_t stalled_part_ = 0;
  bool finished_ = false;

  std::vector<Key> batch_keys_;
  std::vector<std::pair<std::size_t, std::size_t>> batch_ranges_;
  /// IterationInfo per batched front; .attempts == 0 && !valid marker is
  /// avoided by a parallel validity vector (a front can have no records).
  std::vector<IterationInfo> batch_infos_;
  std::vector<char> batch_has_info_;
  std::vector<std::pair<std::size_t, std::unique_ptr<TraceBlock>>> retired_;

  std::vector<IterationInfo> iterations_;
  std::uint64_t samples_ = 0;
  std::uint64_t blocks_ = 0;
  std::size_t buffered_blocks_ = 0;
};

}  // namespace labmon::trace
