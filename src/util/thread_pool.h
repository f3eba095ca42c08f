// A small fixed-size thread pool for the bulk-labeling pipeline.
// Deliberately work-stealing-free: tasks go through one shared deque
// guarded by a single mutex. The parallel units we feed it (UID-local
// areas) are coarse enough that queue contention is negligible, and the
// simple design keeps the TSan story trivial.
#ifndef RUIDX_UTIL_THREAD_POOL_H_
#define RUIDX_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/sync.h"

namespace ruidx {
namespace util {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  /// Enqueues `fn` for execution on some worker. Tasks must not Submit()
  /// recursively and then Wait() from inside the pool (deadlock).
  void Submit(std::function<void()> fn);

  /// Blocks until every task submitted so far has finished.
  void Wait();

  /// Runs fn(i) for every i in [0, n). Indices are claimed one at a time
  /// from a shared cursor, so uneven item costs balance across workers
  /// without any stealing. With a null pool (or a single worker and none to
  /// spare) the loop simply runs inline on the caller — the serial and
  /// parallel paths execute the same per-index code, which is what the
  /// threads=1 vs threads=N equivalence tests lean on.
  static void ParallelFor(ThreadPool* pool, size_t n,
                          const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  mutable Mutex mu_{LockRank::kThreadPool, "thread_pool.mu"};
  CondVar task_ready_;
  CondVar all_done_;
  std::deque<std::function<void()>> tasks_ RUIDX_GUARDED_BY(mu_);
  size_t in_flight_ RUIDX_GUARDED_BY(mu_) = 0;  // queued + executing
  bool shutting_down_ RUIDX_GUARDED_BY(mu_) = false;
  /// Written only by the constructor, before any worker can observe the
  /// pool; read-only afterwards (size(), the destructor's join).
  std::vector<std::thread> workers_;
};

}  // namespace util
}  // namespace ruidx

#endif  // RUIDX_UTIL_THREAD_POOL_H_
