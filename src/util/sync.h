// Annotated synchronization primitives: compile-time lock discipline via
// Clang Thread Safety Analysis, plus a debug-build runtime lock-rank
// deadlock detector.
//
// Every mutex in the project is a ruidx::Mutex, every guarded member is
// tagged RUIDX_GUARDED_BY, and every *Locked() helper is tagged
// RUIDX_REQUIRES, so a clang build with -Wthread-safety -Werror turns an
// unannotated guarded access or a lock-free *Locked() call into a build
// break instead of a TSan lottery ticket. Under GCC/MSVC the attribute
// macros expand to nothing and the wrappers are thin std::mutex shims —
// the portable build is unchanged.
//
// Conventions for new code (see DESIGN.md §13 for the full capability map):
//   - Name every Mutex member `mu_` (or `<what>_mu_`) and construct it with
//     a LockRank from the global table below plus a short debug name.
//   - Tag every member it protects with RUIDX_GUARDED_BY(mu_). Members
//     written once before the object is shared (thread handles, the
//     flusher pointer) stay untagged with a comment saying so.
//   - Private helpers that expect the lock held take no lock argument; they
//     carry RUIDX_REQUIRES(mu_) and the *Locked suffix.
//   - Lock with MutexLock (or ReleasableMutexLock when work follows the
//     critical section); never call Lock/Unlock manually in new code.
//   - Condition waits are explicit loops: `while (!pred) cv_.Wait(&mu_);`.
//     The analysis cannot see through std::condition_variable predicates
//     (lambdas are analyzed as separate functions), so wait predicates as
//     lambdas are banned.
//
// The runtime lock-rank validator (Debug / RUIDX_FORCE_DCHECKS builds
// only) keeps a thread-local stack of held ranks; acquiring a mutex whose
// rank is not strictly below every held rank aborts with both ranks and
// the whole held stack printed. Compile-time analysis proves "the right
// lock is held"; the rank validator proves "locks are taken in a global
// order", turning potential deadlocks into deterministic test failures.
#ifndef RUIDX_UTIL_SYNC_H_
#define RUIDX_UTIL_SYNC_H_

#include <condition_variable>
#include <mutex>

#include "util/dcheck.h"

// ---------------------------------------------------------------------------
// Clang Thread Safety Analysis attributes (no-ops elsewhere).
// ---------------------------------------------------------------------------
#if defined(__clang__)
#define RUIDX_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define RUIDX_THREAD_ANNOTATION(x)
#endif

/// A type that acts as a lock (ruidx::Mutex below).
#define RUIDX_CAPABILITY(x) RUIDX_THREAD_ANNOTATION(capability(x))
/// An RAII type that acquires a capability in its constructor and releases
/// it in its destructor (MutexLock / ReleasableMutexLock).
#define RUIDX_SCOPED_CAPABILITY RUIDX_THREAD_ANNOTATION(scoped_lockable)
/// Data member readable/writable only while `x` is held.
#define RUIDX_GUARDED_BY(x) RUIDX_THREAD_ANNOTATION(guarded_by(x))
/// Pointer member whose *pointee* is guarded by `x`.
#define RUIDX_PT_GUARDED_BY(x) RUIDX_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function that must be called with the capability held. (The attribute
/// spelling is requires_capability — `requires` is a C++20 keyword.)
#define RUIDX_REQUIRES(...) \
  RUIDX_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Function that acquires the capability and returns holding it.
#define RUIDX_ACQUIRE(...) \
  RUIDX_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function that releases the capability.
#define RUIDX_RELEASE(...) \
  RUIDX_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Function that acquires the capability when it returns `true`.
#define RUIDX_TRY_ACQUIRE(...) \
  RUIDX_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
/// Function that must NOT be called with the capability held (non-reentrant
/// public entry points of a locked class).
#define RUIDX_EXCLUDES(...) RUIDX_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Runtime assertion that the capability is held (AssertHeld).
#define RUIDX_ASSERT_CAPABILITY(x) \
  RUIDX_THREAD_ANNOTATION(assert_capability(x))
/// Escape hatch: disables the analysis inside one function body. Every use
/// carries a comment explaining why the access is safe.
#define RUIDX_NO_THREAD_SAFETY_ANALYSIS \
  RUIDX_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace ruidx {

// ---------------------------------------------------------------------------
// Global lock-rank table.
//
// A thread may only acquire a mutex whose rank is STRICTLY LOWER than every
// mutex it already holds (outermost locks have the highest rank). The table
// is derived from the real nesting chains in the code; the deepest is
//   pool mu_ → wal mu_ / pager mu_
// (a synchronous write-back that journals and syncs).
// Violations abort in Debug builds with both ranks printed. New mutexes get
// a row here and in DESIGN.md §13; equal ranks are never acquired nested
// (the validator treats rank equality as a violation — on a non-recursive
// mutex, re-acquisition is a self-deadlock anyway).
// ---------------------------------------------------------------------------
enum class LockRank : int {
  /// Leaf latches: the flusher's per-commit completion latch, ParallelFor's
  /// per-call completion state, test-local mutexes. Never held while
  /// acquiring anything else.
  kLeafLatch = 10,
  /// core::AncestorPathCache::mu_ — taken from query threads; never calls
  /// out while held.
  kAncestorCache = 20,
  /// core::SharedGlobalState::mu_ — the concurrent (κ, K) holder for the
  /// MVCC / network-server consumers; snapshot/store only, no calls out.
  kGlobalState = 25,
  /// storage::Pager::mu_ — serializes seek+transfer pairs; innermost of the
  /// storage chain (the pool holds its own mutex across pager calls).
  kPager = 30,
  /// storage::SnapshotTable::mu_ — the MVCC pre-image layers and snapshot
  /// registry. Taken under the pool mutex (pre-image recording at dirtying
  /// time) and under the WAL mutex (seeding a mid-transaction snapshot from
  /// the journal), so it slots BELOW kWal; snapshot readers holding it may
  /// take the pager mutex for committed-page reads, never the pool's.
  kSnapshotTable = 35,
  /// storage::WriteAheadLog::mu_ — journal file ops; taken under the pool
  /// mutex by write-backs (journal-sync-before-write-back) but never while
  /// the pager mutex is held.
  kWal = 40,
  /// storage::BackgroundFlusher::mu_ — the request queue. The flusher
  /// releases it before entering the pool, and the pool never holds mu_
  /// when scheduling a drain (the dirty-count snapshot pattern) — so it
  /// sits below the pool despite living "next to" it.
  kFlusherQueue = 50,
  /// storage::BufferPool::mu_ — frame metadata; held across pager and WAL
  /// calls by the synchronous write-back path.
  kBufferPool = 60,
  /// util::ThreadPool::mu_ — task queue; workers release it before running
  /// a task, so tasks may take any storage lock. The outermost rank.
  kThreadPool = 70,
};

namespace sync_internal {
#if RUIDX_DCHECK_IS_ON
/// Validates `rank` against this thread's held-lock stack (abort on
/// violation) and pushes the new entry. Called BEFORE blocking on the
/// native mutex, so a would-be deadlock aborts deterministically instead of
/// hanging until a second thread completes the cycle.
void RankCheckAcquire(int rank, const char* name, const void* mu);
/// Pops `mu` from this thread's held-lock stack (abort if absent).
void RankRelease(const void* mu);
/// Aborts unless this thread's stack holds `mu`.
void RankAssertHeld(const void* mu, const char* name);
#endif
}  // namespace sync_internal

/// A mutex carrying a thread-safety capability and a deadlock-detection
/// rank. Non-recursive, non-copyable; construct with a LockRank row and a
/// short debug name (printed by rank-violation aborts).
class RUIDX_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockRank rank, const char* name)
      : rank_(static_cast<int>(rank)), name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() RUIDX_ACQUIRE() {
#if RUIDX_DCHECK_IS_ON
    sync_internal::RankCheckAcquire(rank_, name_, this);
#endif
    mu_.lock();
  }

  void Unlock() RUIDX_RELEASE() {
    mu_.unlock();
#if RUIDX_DCHECK_IS_ON
    sync_internal::RankRelease(this);
#endif
  }

  /// Debug assertion that the calling thread holds this mutex; also tells
  /// the static analysis to assume it from here on (for call chains the
  /// analysis cannot follow).
  void AssertHeld() const RUIDX_ASSERT_CAPABILITY(this) {
#if RUIDX_DCHECK_IS_ON
    sync_internal::RankAssertHeld(this, name_);
#endif
  }

  int rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  friend class CondVar;

  std::mutex mu_;
  const int rank_;
  const char* const name_;
};

/// RAII lock for a whole scope. The only way code outside sync.h acquires
/// a Mutex (the linter's naked-mutex rule enforces the "no raw
/// lock/unlock" half of that).
class RUIDX_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) RUIDX_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RUIDX_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// MutexLock that can release early — for the unlock-then-notify pattern
/// (compute a snapshot under the lock, drop it, then do the slow call).
/// The destructor releases only if Release() was never called, which the
/// analysis models exactly (scoped capabilities support conditional
/// release in destructors).
class RUIDX_SCOPED_CAPABILITY ReleasableMutexLock {
 public:
  explicit ReleasableMutexLock(Mutex* mu) RUIDX_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~ReleasableMutexLock() RUIDX_RELEASE() {
    if (mu_ != nullptr) mu_->Unlock();
  }

  /// Releases the lock now instead of at scope end. Call at most once.
  void Release() RUIDX_RELEASE() {
    mu_->Unlock();
    mu_ = nullptr;
  }

  ReleasableMutexLock(const ReleasableMutexLock&) = delete;
  ReleasableMutexLock& operator=(const ReleasableMutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// Condition variable bound to ruidx::Mutex. Wait() atomically releases
/// the mutex and reacquires it before returning — the held-rank stack is
/// left untouched across the wait (a blocked thread acquires nothing), so
/// rank validation still sees the mutex as held, which matches what the
/// caller observes on both sides of the call.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified; may wake spuriously, so callers loop:
  ///   while (!pred) cv_.Wait(&mu_);
  void Wait(Mutex* mu) RUIDX_REQUIRES(mu);

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace ruidx

#endif  // RUIDX_UTIL_SYNC_H_
