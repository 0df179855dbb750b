// Bounded MPSC staging ring + block recycling pool — the plumbing of the
// streaming campaign engine.
//
// StagingRing<T> is a fixed-capacity FIFO with condition-variable parking
// on both ends: producers block in Push() while the ring is full
// (backpressure — a fast simulator cannot outrun a slow merge by more
// than `capacity` blocks), the consumer blocks in Pop() while it is
// empty. Close() ends the stream gracefully (pending items remain
// poppable), Cancel() aborts it (pending items are dropped and every
// parked thread wakes with `false`). Per-ring counters record occupancy
// peaks and stall time on both ends; the streaming engine exports them
// through obs::Registry. Like the rest of util, the ring itself carries
// no observability dependencies.
//
// RecyclingPool<T> is the arena companion: consumers Release() cleared
// objects (e.g. TraceBlock::Clear() keeps vector capacity) and producers
// Acquire() them back, so steady-state block traffic performs no heap
// allocation. The reuse ratio is tracked for the arena-reuse metric.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

namespace labmon::util {

/// Counters of one ring's lifetime. `*_stalls` counts calls that had to
/// park at least once; `*_wait_ns` is the wall time spent parked.
struct StagingRingStats {
  std::uint64_t pushed = 0;
  std::uint64_t popped = 0;
  std::uint64_t push_stalls = 0;
  std::uint64_t pop_stalls = 0;
  std::uint64_t push_wait_ns = 0;
  std::uint64_t pop_wait_ns = 0;
  std::size_t peak_occupancy = 0;
  std::size_t capacity = 0;
};

template <typename T>
class StagingRing {
 public:
  explicit StagingRing(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  StagingRing(const StagingRing&) = delete;
  StagingRing& operator=(const StagingRing&) = delete;

  /// Blocks while the ring is full. Returns false (item not enqueued) when
  /// the ring was closed or cancelled.
  bool Push(T&& item) {
    std::unique_lock lock(mutex_);
    if (items_.size() >= capacity_ && !closed_ && !cancelled_) {
      ++stats_.push_stalls;
      const auto t0 = std::chrono::steady_clock::now();
      not_full_.wait(lock, [&] {
        return items_.size() < capacity_ || closed_ || cancelled_;
      });
      stats_.push_wait_ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
    }
    if (closed_ || cancelled_) return false;
    items_.push_back(std::move(item));
    ++stats_.pushed;
    stats_.peak_occupancy = std::max(stats_.peak_occupancy, items_.size());
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while the ring is empty and open. Returns false when the ring
  /// is cancelled, or closed and fully drained.
  bool Pop(T& out) {
    std::unique_lock lock(mutex_);
    if (items_.empty() && !closed_ && !cancelled_) {
      ++stats_.pop_stalls;
      const auto t0 = std::chrono::steady_clock::now();
      not_empty_.wait(lock,
                      [&] { return !items_.empty() || closed_ || cancelled_; });
      stats_.pop_wait_ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
    }
    if (cancelled_ || items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    ++stats_.popped;
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  /// Non-blocking Pop; false when nothing is immediately available.
  bool TryPop(T& out) {
    std::unique_lock lock(mutex_);
    if (cancelled_ || items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    ++stats_.popped;
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  /// Ends the stream: further Push() fails, pending items stay poppable,
  /// a parked consumer wakes once the queue drains.
  void Close() {
    {
      const std::scoped_lock lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  /// Aborts the stream: drops every pending item and wakes all parked
  /// threads with `false`. Used on the error path so producers blocked on
  /// a full ring can never deadlock a failed run.
  void Cancel() {
    {
      const std::scoped_lock lock(mutex_);
      cancelled_ = true;
      items_.clear();
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  [[nodiscard]] std::size_t size() const {
    const std::scoped_lock lock(mutex_);
    return items_.size();
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool cancelled() const {
    const std::scoped_lock lock(mutex_);
    return cancelled_;
  }
  [[nodiscard]] StagingRingStats stats() const {
    const std::scoped_lock lock(mutex_);
    StagingRingStats out = stats_;
    out.capacity = capacity_;
    return out;
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
  bool cancelled_ = false;
  StagingRingStats stats_;
};

/// Free-list of reusable objects. Thread-safe; Acquire() falls back to
/// default construction when the list is empty (counted as an allocation,
/// not a reuse). Callers must reset an object before Release() — the pool
/// never looks inside T.
template <typename T>
class RecyclingPool {
 public:
  struct Stats {
    std::uint64_t acquired = 0;
    std::uint64_t reused = 0;
    std::uint64_t released = 0;
    /// Fraction of Acquire() calls served from the free list.
    [[nodiscard]] double ReuseRatio() const noexcept {
      return acquired ? static_cast<double>(reused) /
                            static_cast<double>(acquired)
                      : 0.0;
    }
  };

  RecyclingPool() = default;
  RecyclingPool(const RecyclingPool&) = delete;
  RecyclingPool& operator=(const RecyclingPool&) = delete;

  [[nodiscard]] T Acquire() {
    const std::scoped_lock lock(mutex_);
    ++stats_.acquired;
    if (free_.empty()) return T{};
    ++stats_.reused;
    T out = std::move(free_.back());
    free_.pop_back();
    return out;
  }

  void Release(T&& item) {
    const std::scoped_lock lock(mutex_);
    ++stats_.released;
    free_.push_back(std::move(item));
  }

  [[nodiscard]] Stats stats() const {
    const std::scoped_lock lock(mutex_);
    return stats_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<T> free_;
  Stats stats_;
};

}  // namespace labmon::util
