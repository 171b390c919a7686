// Persistent worker-thread pool shared by every parallel code path (the
// unit scheduler's lanes, quantum batch execution, a standalone candidate's
// training runs).
//
// Design constraints, in order:
//   1. Determinism: the pool never decides *what* runs, only *where*. Call
//      sites pre-split RNG streams and write results into per-index slots,
//      so outputs are bit-identical for any thread count.
//   2. No per-call thread spawning: the search trains thousands of models
//      with batch-size-8 forward/backward calls; creating threads inside
//      that loop (the pre-pool design) costs more than the work itself.
//   3. Deadlock-free nesting: parallel_for may be called from inside a task
//      already running on the pool (candidate -> training run -> quantum
//      batch). The calling thread always participates in the loop it
//      issued, so a loop completes even when every worker is busy.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include <condition_variable>
#include <mutex>

namespace qhdl::util {

class ThreadPool {
 public:
  /// Spawns `workers` persistent threads (at least 1).
  explicit ThreadPool(std::size_t workers);

  /// Drains nothing: outstanding parallel_for calls have already completed
  /// (they block their caller); queued leftover helpers are no-ops.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return workers_.size(); }

  /// Runs work(i) for every i in [begin, end) and blocks until all have
  /// finished. At most `max_threads` indices execute concurrently (the
  /// calling thread counts as one and always participates); max_threads <= 1
  /// executes inline, in order, on the calling thread — the serial path and
  /// the parallel path are the same code. The first exception thrown by
  /// `work` is rethrown here after the loop quiesces (remaining unclaimed
  /// indices are skipped).
  void parallel_for(std::size_t begin, std::size_t end,
                    std::size_t max_threads,
                    const std::function<void(std::size_t)>& work);

  /// Process-wide pool, lazily created on first use with
  /// hardware_concurrency() workers. All library call sites go through this
  /// instance so the whole program shares one set of threads.
  static ThreadPool& shared();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_ready_;
  bool stop_ = false;
};

/// parallel_for on the shared pool (the call sites' entry point).
void parallel_for(std::size_t begin, std::size_t end, std::size_t max_threads,
                  const std::function<void(std::size_t)>& work);

}  // namespace qhdl::util
