// MergeFrontier tests — the push-model incremental merge must emit a
// sample stream bit-identical to the pull-model StreamMergeBlocks over
// the same part streams, regardless of the order parts' blocks arrive,
// the order parts finish, whether blocks are owned or borrowed views,
// and how many sort workers batch the ready fronts. These invariances
// are what make the campaign run loop's output independent of thread
// scheduling. The serial MergeTraces over the same per-part stores is
// kept as an oracle that shares no code with the frontier.
#include "labmon/trace/merge_frontier.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "labmon/trace/block.hpp"
#include "labmon/trace/merge.hpp"
#include "labmon/trace/stream_merge.hpp"

namespace labmon::trace {
namespace {

constexpr std::size_t kMachineCount = 8;  // 4 parts x 2 machines
constexpr std::size_t kParts = 4;         // part 3 stays empty
constexpr std::uint32_t kIterations = 12;
// Per machine per iteration; sized so a full backlog of ready fronts
// crosses the frontier's parallel-sort threshold (>=4096 keys a batch).
constexpr std::size_t kSamplesPerMachine = 60;
constexpr std::size_t kBlockSamples = 97;  // odd: forces partial seals

SampleRecord MakeRecord(std::uint32_t machine, std::uint32_t iteration,
                        std::size_t ordinal) {
  SampleRecord r;
  r.machine = machine;
  r.iteration = iteration;
  // Interleave timestamps across machines so the merge genuinely reorders.
  r.t = 900 * (iteration + 1) +
        static_cast<std::int64_t>((ordinal * kMachineCount) + machine);
  r.boot_time = r.t - 500;
  r.uptime_s = 500;
  r.cpu_idle_s = 471.125;
  r.mem_load_pct = static_cast<int>((machine * 7 + ordinal) % 100);
  r.swap_load_pct = 9;
  r.disk_total_b = 74'500'000'000ULL;
  r.disk_free_b = 58'000'000'321ULL - ordinal;
  r.smart_power_on_hours = 777;
  r.smart_power_cycles = 66;
  r.net_sent_b = 5000 + static_cast<std::uint64_t>(r.t);
  r.net_recv_b = 9000 + static_cast<std::uint64_t>(r.t);
  if (ordinal % 3 == 1) {
    r.has_session = true;
    r.session_logon = r.t - 200;
    r.user = "u" + std::to_string(machine);
  }
  return r;
}

/// One part's store covering iterations [it_begin, it_end): iteration-major
/// rows for the part's two machines plus per-iteration metadata.
TraceStore MakePartStore(std::size_t part, std::uint32_t it_begin,
                         std::uint32_t it_end) {
  TraceStore store(kMachineCount);
  for (std::uint32_t it = it_begin; it < it_end; ++it) {
    for (std::size_t i = 0; i < kSamplesPerMachine; ++i) {
      for (std::uint32_t m = 0; m < 2; ++m) {
        store.Append(
            MakeRecord(static_cast<std::uint32_t>(2 * part + m), it, i));
      }
    }
    store.AppendIteration(
        {it, 900 * (it + 1), 900 * (it + 1) + 60 + static_cast<int>(part),
         static_cast<std::uint32_t>(2 * kSamplesPerMachine + part),
         static_cast<std::uint32_t>(2 * kSamplesPerMachine)});
  }
  return store;
}

TraceBlock MakePartBlock(std::size_t part, std::uint32_t it_begin,
                         std::uint32_t it_end) {
  TraceBlock block;
  block.AssignFrom(MakePartStore(part, it_begin, it_end));
  return block;
}

/// Part streams with deliberately mismatched block boundaries: part 0
/// seals per iteration, part 1 ships one giant block, part 2 seals every
/// five iterations, part 3 produces nothing at all.
std::vector<std::vector<TraceBlock>> MakePartStreams() {
  std::vector<std::vector<TraceBlock>> parts(kParts);
  for (std::uint32_t it = 0; it < kIterations; ++it) {
    parts[0].push_back(MakePartBlock(0, it, it + 1));
  }
  parts[1].push_back(MakePartBlock(1, 0, kIterations));
  for (std::uint32_t it = 0; it < kIterations; it += 5) {
    parts[2].push_back(
        MakePartBlock(2, it, std::min(it + 5, kIterations)));
  }
  return parts;
}

struct MergedDigest {
  std::uint64_t hash = kSampleStreamHashSeed;
  std::uint64_t samples = 0;
  std::uint64_t blocks = 0;
  std::vector<IterationInfo> iterations;

  void Fold(const TraceBlock& block) {
    hash = HashBlockSamples(hash, block);
    samples += block.size();
    ++blocks;
  }
};

MergedDigest PullReference(const std::vector<std::vector<TraceBlock>>& parts) {
  std::vector<BlockVectorReader> readers;
  readers.reserve(parts.size());
  for (const auto& blocks : parts) readers.emplace_back(blocks);
  std::vector<TraceReader*> ptrs;
  for (auto& r : readers) ptrs.push_back(&r);
  MergedDigest digest;
  auto sink = [&](const TraceBlock& block) { digest.Fold(block); };
  const StreamMergeResult result = StreamMergeBlocks(
      ptrs, kMachineCount, kBlockSamples,
      util::FunctionRef<void(const TraceBlock&)>(sink));
  digest.iterations = result.iterations;
  EXPECT_EQ(digest.samples, result.samples);
  EXPECT_EQ(digest.blocks, result.blocks);
  return digest;
}

void ExpectIterationsEqual(std::span<const IterationInfo> got,
                           std::span<const IterationInfo> want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].iteration, want[i].iteration);
    EXPECT_EQ(got[i].start_t, want[i].start_t);
    EXPECT_EQ(got[i].end_t, want[i].end_t);
    EXPECT_EQ(got[i].attempts, want[i].attempts);
    EXPECT_EQ(got[i].successes, want[i].successes);
  }
}

void ExpectDigestsEqual(const MergedDigest& got, const MergedDigest& want) {
  EXPECT_EQ(got.hash, want.hash);
  EXPECT_EQ(got.samples, want.samples);
  EXPECT_EQ(got.blocks, want.blocks);
  ExpectIterationsEqual(got.iterations, want.iterations);
}

TEST(MergeFrontierTest, IncrementalPushMatchesPullMerge) {
  const auto parts = MakePartStreams();
  const MergedDigest want = PullReference(parts);
  ASSERT_GT(want.samples, 0u);
  ASSERT_EQ(want.iterations.size(), kIterations);

  MergeFrontier frontier(kParts, kBlockSamples);
  MergedDigest got;
  std::size_t recycled = 0;
  std::size_t appended = 0;
  auto emit = [&](TraceBlock& block) { got.Fold(block); };
  auto recycle = [&](std::size_t, std::unique_ptr<TraceBlock> block) {
    ASSERT_NE(block, nullptr);
    ++recycled;
  };
  const MergeFrontier::EmitFn emit_fn(emit);
  const MergeFrontier::RecycleFn recycle_fn(recycle);

  // Feed parts in reverse order, one block per Advance, so the frontier
  // repeatedly stalls on the slowest part and resumes. The empty part
  // finishes first; merged output must still be the pull result.
  frontier.FinishPart(3);
  const std::size_t max_blocks = parts[0].size();
  for (std::size_t b = 0; b < max_blocks; ++b) {
    for (std::size_t p = kParts; p-- > 0;) {
      if (b >= parts[p].size()) continue;
      frontier.Append(p, std::make_unique<TraceBlock>(parts[p][b]));
      ++appended;
      frontier.Advance(emit_fn, recycle_fn);
      if (b + 1 == parts[p].size()) frontier.FinishPart(p);
    }
  }
  frontier.Advance(emit_fn, recycle_fn);
  ASSERT_TRUE(frontier.finished());
  got.iterations = frontier.TakeIterations();

  ExpectDigestsEqual(got, want);
  EXPECT_EQ(got.samples, frontier.samples());
  EXPECT_EQ(got.blocks, frontier.blocks());
  EXPECT_EQ(recycled, appended);  // every owned block came back
  EXPECT_EQ(frontier.buffered_blocks(), 0u);
}

TEST(MergeFrontierTest, MatchesMergeTracesOracle) {
  // The same part contents as MakePartStreams, one whole store per part.
  std::vector<TraceStore> stores;
  for (std::size_t p = 0; p < kParts; ++p) {
    stores.push_back(MakePartStore(p, 0, p + 1 < kParts ? kIterations : 0));
  }
  const TraceStore want = MergeTraces(stores);
  StoreReader want_reader(want);
  const std::uint64_t want_hash = HashSampleStream(want_reader);
  ASSERT_GT(want.size(), 0u);

  MergeFrontier frontier(kParts, kBlockSamples);
  const auto parts = MakePartStreams();
  for (std::size_t p = 0; p < kParts; ++p) {
    for (const TraceBlock& block : parts[p]) {
      frontier.Append(p, std::make_unique<TraceBlock>(block));
    }
    frontier.FinishPart(p);
  }
  MergedDigest got;
  // Re-intern each merged block's table in its own order, as a consumer
  // materialising the stream does; that must give MergeTraces' table.
  std::vector<std::string> users;
  std::unordered_set<std::string> seen;
  auto emit = [&](TraceBlock& block) {
    got.Fold(block);
    for (const std::string& user : block.users) {
      if (seen.insert(user).second) users.push_back(user);
    }
  };
  auto recycle = [&](std::size_t, std::unique_ptr<TraceBlock>) {};
  while (!frontier.finished()) {
    ASSERT_GT(frontier.Advance(MergeFrontier::EmitFn(emit),
                               MergeFrontier::RecycleFn(recycle)),
              0u);
  }
  got.iterations = frontier.TakeIterations();

  EXPECT_EQ(got.hash, want_hash);
  EXPECT_EQ(got.samples, want.size());
  EXPECT_EQ(users,
            std::vector<std::string>(want.users().begin(), want.users().end()));
  ExpectIterationsEqual(got.iterations, want.iterations());
}

TEST(MergeFrontierTest, ParallelSortBatchMatchesPullMerge) {
  const auto parts = MakePartStreams();
  const MergedDigest want = PullReference(parts);

  // Everything buffered up front + out-of-order FinishPart, then a single
  // Advance with parallel per-front sorts over the full front backlog.
  MergeFrontier frontier(kParts, kBlockSamples);
  for (std::size_t p : {2u, 0u, 3u, 1u}) {
    for (const TraceBlock& block : parts[p]) {
      frontier.Append(p, std::make_unique<TraceBlock>(block));
    }
    frontier.FinishPart(p);
  }
  MergedDigest got;
  auto emit = [&](TraceBlock& block) { got.Fold(block); };
  auto recycle = [&](std::size_t, std::unique_ptr<TraceBlock>) {};
  while (!frontier.finished()) {
    const std::size_t merged =
        frontier.Advance(MergeFrontier::EmitFn(emit),
                         MergeFrontier::RecycleFn(recycle), /*sort_workers=*/4);
    ASSERT_GT(merged, 0u) << "frontier stalled with all parts finished";
  }
  got.iterations = frontier.TakeIterations();
  ExpectDigestsEqual(got, want);
}

TEST(MergeFrontierTest, BorrowedViewsMatchOwnedBlocks) {
  const auto parts = MakePartStreams();
  const MergedDigest want = PullReference(parts);

  MergeFrontier frontier(kParts, kBlockSamples);
  for (std::size_t p = 0; p < kParts; ++p) {
    for (const TraceBlock& block : parts[p]) frontier.AppendView(p, &block);
    frontier.FinishPart(p);
  }
  MergedDigest got;
  bool recycle_called = false;
  auto emit = [&](TraceBlock& block) { got.Fold(block); };
  auto recycle = [&](std::size_t, std::unique_ptr<TraceBlock>) {
    recycle_called = true;
  };
  while (!frontier.finished()) {
    ASSERT_GT(frontier.Advance(MergeFrontier::EmitFn(emit),
                               MergeFrontier::RecycleFn(recycle)),
              0u);
  }
  got.iterations = frontier.TakeIterations();
  ExpectDigestsEqual(got, want);
  EXPECT_FALSE(recycle_called);  // views are never handed to the recycler
}

TEST(MergeFrontierTest, StalledPartPointsAtTheBlockingStream) {
  const auto parts = MakePartStreams();
  MergeFrontier frontier(kParts, kBlockSamples);
  // Only part 1's stream is available: the first front cannot complete
  // and the frontier must name a part that has not delivered content.
  frontier.Append(1, std::make_unique<TraceBlock>(parts[1][0]));
  frontier.FinishPart(1);
  frontier.FinishPart(3);
  MergedDigest got;
  auto emit = [&](TraceBlock& block) { got.Fold(block); };
  auto recycle = [&](std::size_t, std::unique_ptr<TraceBlock>) {};
  EXPECT_EQ(frontier.Advance(MergeFrontier::EmitFn(emit),
                             MergeFrontier::RecycleFn(recycle)),
            0u);
  EXPECT_FALSE(frontier.finished());
  EXPECT_EQ(got.samples, 0u);
  const std::size_t stalled = frontier.stalled_part();
  EXPECT_TRUE(stalled == 0 || stalled == 2) << "stalled on " << stalled;
}

TEST(MergeFrontierTest, SessionRowWithoutUserMergesAsSessionFree) {
  // Only a malformed input holds such rows (a checksummed but hand-made
  // segment, a buggy writer); the merge must not look the missing user up.
  auto block = std::make_unique<TraceBlock>(MakePartBlock(0, 0, 2));
  std::size_t session_rows = 0;
  for (std::size_t i = 0; i < block->size(); ++i) {
    if (block->cols.has_session[i] == 0) continue;
    block->cols.user_id[i] = TraceStore::kNoUser;
    ++session_rows;
  }
  block->users.clear();
  ASSERT_GT(session_rows, 0u);
  const std::size_t rows = block->size();

  MergeFrontier frontier(kParts, kBlockSamples);
  frontier.Append(0, std::move(block));
  for (std::size_t p = 0; p < kParts; ++p) frontier.FinishPart(p);
  std::size_t merged = 0;
  std::size_t merged_sessions = 0;
  auto emit = [&](TraceBlock& out) {
    EXPECT_TRUE(out.users.empty());
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out.cols.user_id[i], TraceStore::kNoUser) << "row " << i;
      merged_sessions += out.cols.has_session[i];
    }
    merged += out.size();
  };
  auto recycle = [&](std::size_t, std::unique_ptr<TraceBlock>) {};
  frontier.Advance(MergeFrontier::EmitFn(emit),
                   MergeFrontier::RecycleFn(recycle));
  EXPECT_TRUE(frontier.finished());
  EXPECT_EQ(merged, rows);
  EXPECT_EQ(merged_sessions, session_rows);
}

TEST(MergeFrontierTest, AllPartsEmptyFinishesImmediately) {
  MergeFrontier frontier(kParts, kBlockSamples);
  for (std::size_t p = 0; p < kParts; ++p) frontier.FinishPart(p);
  MergedDigest got;
  auto emit = [&](TraceBlock& block) { got.Fold(block); };
  auto recycle = [&](std::size_t, std::unique_ptr<TraceBlock>) {};
  frontier.Advance(MergeFrontier::EmitFn(emit),
                   MergeFrontier::RecycleFn(recycle));
  EXPECT_TRUE(frontier.finished());
  EXPECT_EQ(got.samples, 0u);
  EXPECT_EQ(got.blocks, 0u);
  EXPECT_TRUE(frontier.TakeIterations().empty());
}

}  // namespace
}  // namespace labmon::trace
