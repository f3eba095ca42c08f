#include "util/sync.h"

#if RUIDX_DCHECK_IS_ON
#include <cstdio>
#include <cstdlib>
#endif

namespace ruidx {

#if RUIDX_DCHECK_IS_ON

namespace sync_internal {
namespace {

// Real chains nest a few storage locks (pool → wal/pager, see LockRank);
// 32 leaves an order of magnitude of headroom before the stack itself
// aborts, which would only mean a runaway lock leak.
constexpr int kMaxHeldLocks = 32;

struct HeldLock {
  int rank;
  const char* name;
  const void* mu;
};

thread_local HeldLock t_held[kMaxHeldLocks];
thread_local int t_held_depth = 0;

[[noreturn]] void RankViolation(const char* what, int rank, const char* name) {
  std::fprintf(stderr,
               "ruidx lock-rank violation: %s \"%s\" (rank %d); "
               "locks held by this thread (outermost first):\n",
               what, name, rank);
  for (int i = 0; i < t_held_depth; ++i) {
    std::fprintf(stderr, "  [%d] \"%s\" (rank %d)\n", i, t_held[i].name,
                 t_held[i].rank);
  }
  std::abort();
}

}  // namespace

void RankCheckAcquire(int rank, const char* name, const void* mu) {
  // Strictly-decreasing ranks down the stack: acquiring a rank >= any held
  // rank is an ordering violation (equality included — on a non-recursive
  // mutex, re-acquisition is a self-deadlock).
  for (int i = 0; i < t_held_depth; ++i) {
    if (t_held[i].rank <= rank) RankViolation("acquiring", rank, name);
  }
  if (t_held_depth >= kMaxHeldLocks) {
    RankViolation("overflowing the held-lock stack acquiring", rank, name);
  }
  t_held[t_held_depth++] = HeldLock{rank, name, mu};
}

void RankRelease(const void* mu) {
  for (int i = t_held_depth - 1; i >= 0; --i) {
    if (t_held[i].mu != mu) continue;
    // Out-of-stack-order release is legal (ReleasableMutexLock inside a
    // wider scope); shift the tail down.
    for (int j = i; j + 1 < t_held_depth; ++j) t_held[j] = t_held[j + 1];
    --t_held_depth;
    return;
  }
  RankViolation("releasing a mutex not held by this thread:", 0, "?");
}

void RankAssertHeld(const void* mu, const char* name) {
  for (int i = 0; i < t_held_depth; ++i) {
    if (t_held[i].mu == mu) return;
  }
  RankViolation("AssertHeld on a mutex not held by this thread:", 0, name);
}

}  // namespace sync_internal

#endif  // RUIDX_DCHECK_IS_ON

// Out of line so the adopt/release dance around the native handle stays in
// one audited place. The analysis is off for the body: the wait releases
// and reacquires mu->mu_ through std::unique_lock, which the annotations
// cannot express — callers still get the full REQUIRES(mu) contract from
// the declaration, and the rank stack is intentionally left alone (see the
// class comment).
RUIDX_NO_THREAD_SAFETY_ANALYSIS
void CondVar::Wait(Mutex* mu) {
  std::unique_lock<std::mutex> native(mu->mu_, std::adopt_lock);
  cv_.wait(native);
  native.release();
}

}  // namespace ruidx
