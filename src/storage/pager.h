// Page-level file storage with explicit I/O accounting.
//
// The paper's preliminary experiments stored elements in an RDBMS reached
// over JDBC, which hid where the I/O happened. This embedded pager exposes
// exactly the boundary the paper argues about: operations that stay in the
// main-memory global state (κ + table K) versus operations that fetch
// pages. Every physical read and write is counted.
//
// The pager is thread-safe: a private mutex serializes the seek+transfer
// pairs, so the buffer pool's foreground path and the background flusher
// can issue I/O against the same file concurrently. The fault injector is
// lock-free (an atomic countdown) because it is shared across files.
#ifndef RUIDX_STORAGE_PAGER_H_
#define RUIDX_STORAGE_PAGER_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "util/result.h"
#include "util/sync.h"

namespace ruidx {
namespace storage {

constexpr uint32_t kPageSize = 4096;
constexpr uint32_t kInvalidPage = 0xFFFFFFFFu;

/// Every page reserves its last 12 bytes for a durability trailer written
/// by the buffer pool at write-back time:
///   [kPageUsableSize      .. +8)  u64 LSN of the commit that wrote it
///   [kPageUsableSize + 8  .. +4)  u32 CRC32C over bytes [0, usable+8)
/// A stored CRC of 0 marks a page that was never stamped (all-zero fresh
/// pages, raw pager writes in tests); such pages are exempt from
/// verification. Layers that lay out page content must stay within
/// kPageUsableSize.
constexpr uint32_t kPageTrailerSize = 12;
constexpr uint32_t kPageUsableSize = kPageSize - kPageTrailerSize;

/// Opens an anonymous temporary FILE* (the empty-path backing for Pager and
/// WriteAheadLog). On Linux this is a memfd — an in-memory file that never
/// touches a filesystem, roughly 40x cheaper to create than tmpfile(), which
/// matters to tests and benchmarks that create many temp-backed stores.
/// Falls back to tmpfile() elsewhere (or if memfd creation fails). Returns
/// nullptr on failure, like tmpfile().
std::FILE* OpenAnonymousTempFile();

/// Writes the LSN + CRC trailer into `page` (kPageSize bytes).
void StampPageTrailer(uint8_t* page, uint64_t lsn);
/// Checks the trailer; Corruption on CRC mismatch. Unstamped pages pass.
Status VerifyPageTrailer(const uint8_t* page, uint32_t page_id);
/// The LSN stored in the trailer (0 for unstamped pages).
uint64_t PageTrailerLsn(const uint8_t* page);

/// A countdown of I/O operations shared by every file the storage stack
/// touches (page file + write-ahead log), so a single InjectFaultAfter(N)
/// can place a simulated crash between ANY two physical operations of a
/// workload — the crash-point matrix test iterates N over the whole range.
/// Atomic, because the background flusher consumes the budget concurrently
/// with the foreground path.
class IoFaultInjector {
 public:
  /// After `ops` further operations, every subsequent one fails until
  /// re-armed with ops = UINT64_MAX (the disarmed state).
  void Arm(uint64_t ops) { countdown_.store(ops, std::memory_order_relaxed); }

  /// Consumes one unit of the fault budget; true when this op must fail.
  bool ShouldFail() {
    uint64_t current = countdown_.load(std::memory_order_relaxed);
    for (;;) {
      if (current == ~0ULL) return false;
      if (current == 0) return true;
      if (countdown_.compare_exchange_weak(current, current - 1,
                                           std::memory_order_relaxed)) {
        return false;
      }
    }
  }

 private:
  std::atomic<uint64_t> countdown_{~0ULL};
};

struct PagerStats {
  uint64_t physical_reads = 0;
  uint64_t physical_writes = 0;
  uint64_t span_writes = 0;  // coalesced multi-page writes (one seek each)
  uint64_t allocations = 0;
  uint64_t syncs = 0;
};

struct PagerOpenOptions {
  /// A file whose size is not a multiple of kPageSize is normally rejected
  /// as Corruption (a torn final write). Recovery opens with this set after
  /// confirming the WAL holds a transaction to roll back: the partial tail
  /// is zero-padded to a page boundary so the journal's pre-images can be
  /// applied over it.
  bool zero_pad_partial_tail = false;
};

/// \brief A file of fixed-size pages.
class Pager {
 public:
  /// Opens (creating if needed) the page file at `path`. Pass the empty
  /// string for an anonymous in-memory-backed temporary file. `injector`
  /// lets several files share one fault budget; pass nullptr to get a
  /// private one.
  static Result<std::unique_ptr<Pager>> Open(
      const std::string& path, const PagerOpenOptions& options = {},
      std::shared_ptr<IoFaultInjector> injector = nullptr);

  ~Pager();
  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  /// Appends a zeroed page; returns its id.
  Result<uint32_t> AllocatePage();

  /// Reads page `id` into `buffer` (kPageSize bytes).
  Status ReadPage(uint32_t id, void* buffer);

  /// Writes `buffer` (kPageSize bytes) to page `id`. Extends the file (and
  /// page_count) when id is past the current end.
  Status WritePage(uint32_t id, const void* buffer);

  /// Writes `count` consecutive pages starting at `first` from one
  /// contiguous buffer (count * kPageSize bytes) with a single seek and a
  /// single transfer — the flusher coalesces adjacent dirty pages into
  /// these spans. Consumes one fault-injection op per page (matching the
  /// per-page write path, so the crash-point matrix can tear a span at any
  /// page boundary — a fault on page k still writes the first k pages) and
  /// counts `count` physical page writes.
  Status WriteSpan(uint32_t first, uint32_t count, const void* buffer);

  /// Flushes stdio and OS buffers down to the device (fsync).
  Status Sync();

  /// Shrinks the file to exactly `pages` pages (recovery rollback of
  /// allocations made by an uncommitted transaction).
  Status TruncateToPages(uint32_t pages);

  uint32_t page_count() const {
    return page_count_.load(std::memory_order_acquire);
  }
  /// A snapshot of the I/O counters, copied under the pager's lock — safe
  /// to call while the flusher is writing (each counter is from the same
  /// consistent instant).
  PagerStats stats() const {
    MutexLock lock(&mu_);
    return stats_;
  }
  void ResetStats() {
    MutexLock lock(&mu_);
    stats_ = PagerStats{};
  }

  /// Fault injection for tests: after `ops` further physical operations
  /// (reads, writes, syncs — on this file and any file sharing the
  /// injector), every subsequent one fails with an injected IOError until
  /// cleared with ops = UINT64_MAX. Layers above must propagate, not crash.
  void InjectFaultAfter(uint64_t ops) { injector_->Arm(ops); }
  const std::shared_ptr<IoFaultInjector>& fault_injector() const {
    return injector_;
  }

 private:
  Pager(std::FILE* file, std::shared_ptr<IoFaultInjector> injector)
      : file_(file), injector_(std::move(injector)) {}

  Status WritePageLocked(uint32_t id, const void* buffer) RUIDX_REQUIRES(mu_);

  /// Serializes seek+transfer pairs and the stats; innermost lock of the
  /// storage chain (rank table in util/sync.h).
  mutable Mutex mu_{LockRank::kPager, "pager.mu"};
  std::FILE* file_ RUIDX_GUARDED_BY(mu_);
  /// Anonymous tmpfile backing (empty path): the file is already unlinked,
  /// so it survives no crash regardless — Sync skips the physical fsync
  /// (the flush, stats, and fault-injection accounting are unchanged).
  bool temp_ RUIDX_GUARDED_BY(mu_) = false;
  std::shared_ptr<IoFaultInjector> injector_;
  std::atomic<uint32_t> page_count_{0};
  PagerStats stats_ RUIDX_GUARDED_BY(mu_);
};

}  // namespace storage
}  // namespace ruidx

#endif  // RUIDX_STORAGE_PAGER_H_
