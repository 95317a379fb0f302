// A small fixed-size thread pool with a parallel-for primitive.
//
// The library runs on modest hardware (the paper's "device" tier); the pool
// is used to split large matrix products and embarrassingly-parallel
// per-user loops across cores. Nested parallel_for calls from inside a
// worker execute serially, so callers never deadlock by composing parallel
// code.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"

namespace pelican {

class ThreadPool {
 public:
  /// Runs batches on `threads` threads: threads - 1 workers plus the caller.
  /// 0 means the number of CPUs in the calling thread's affinity mask
  /// (sched_getaffinity; hardware_concurrency if that call fails), so a
  /// process confined to one CPU gets no workers and runs every
  /// parallel_for inline.
  explicit ThreadPool(std::size_t threads = 0);

  /// Joins all workers. Requires that no parallel_for is in flight — a
  /// still-running batch at destruction is a use-after-free in the making,
  /// and is asserted against (RelAssert keeps assertions on).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Spawned workers, not counting the calling thread.
  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Runs fn(i) for i in [0, count), blocking until all complete. The
  /// calling thread and up to count - 1 woken workers take indices one at a
  /// time from a shared counter; each worker joins a batch at most once.
  /// Exceptions thrown by fn propagate to the caller (first one wins).
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// Process-wide pool, sized as ThreadPool(0) by the affinity mask of the
  /// thread that first uses it. Lazily constructed on first use; destroyed
  /// during static teardown in reverse construction order.
  /// OWNERSHIP AND SHUTDOWN ORDER: anything that may run tasks during exit
  /// (static destructors, atexit hooks) must either have been constructed
  /// AFTER the pool's first use — C++ guarantees it is then destroyed
  /// before the pool — or go through pelican::parallel_for, which degrades
  /// to a serial loop once the pool is gone (see global_alive). TSan's
  /// exit-time checker sees a clean join either way.
  static ThreadPool& global();

  /// False once the global pool has been destroyed at process exit. The
  /// free parallel_for below checks this so late static destructors never
  /// touch a dead pool.
  [[nodiscard]] static bool global_alive() noexcept;

 private:
  struct Batch;

  void worker_loop();

  std::vector<std::thread> workers_;
  Mutex submit_mutex_;  ///< serializes concurrent parallel_for submissions
  Mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  Batch* batch_ PELICAN_GUARDED_BY(mutex_) = nullptr;  ///< current batch
  /// Bumped per installed batch; workers remember the last one they joined.
  std::uint64_t generation_ PELICAN_GUARDED_BY(mutex_) = 0;
  bool stop_ PELICAN_GUARDED_BY(mutex_) = false;
};

/// Convenience wrapper over the global pool. Falls back to a serial loop
/// when called from inside a pool worker (no nested parallelism) or after
/// the global pool has been torn down at exit.
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

}  // namespace pelican
