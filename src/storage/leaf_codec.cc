#include "storage/leaf_codec.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>

#include "storage/buffer_pool.h"
#include "util/dcheck.h"

namespace ruidx {
namespace storage {

namespace {
std::atomic<bool> g_leaf_compression{true};
}  // namespace

bool LeafCompressionEnabled() {
  return g_leaf_compression.load(std::memory_order_relaxed);
}
void SetLeafCompressionEnabled(bool enabled) {
  g_leaf_compression.store(enabled, std::memory_order_relaxed);
}

namespace leaf {

namespace {

constexpr size_t kFormatOff = 1;
constexpr size_t kCountOff = 2;
constexpr size_t kNextOff = 4;
constexpr size_t kPrevOff = 8;
constexpr size_t kPrefixLenOff = 12;
constexpr size_t kDataEndOff = 14;
constexpr size_t kPrefixOff = 16;
constexpr size_t kEntryFixed = 2 + 8;  // shared + suffix_len bytes, value

uint16_t LoadU16(const uint8_t* p) {
  uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}
void StoreU16(uint8_t* p, uint16_t v) { std::memcpy(p, &v, 2); }

uint16_t PageCount(const uint8_t* page) { return LoadU16(page + kCountOff); }
void SetPageCount(uint8_t* page, uint16_t v) {
  StoreU16(page + kCountOff, v);
}
uint16_t PrefixLen(const uint8_t* page) {
  return LoadU16(page + kPrefixLenOff);
}
uint16_t DataEnd(const uint8_t* page) { return LoadU16(page + kDataEndOff); }
void SetDataEnd(uint8_t* page, uint16_t v) {
  StoreU16(page + kDataEndOff, v);
}

size_t RestartCount(const uint8_t* page) {
  return LoadU16(page + kPageUsableSize - 2);
}
void SetRestartCount(uint8_t* page, uint16_t v) {
  StoreU16(page + kPageUsableSize - 2, v);
}
/// Byte position of restart j's {offset, index} pair (directory grows down
/// from the tail, restart 0 closest to the count word).
size_t RestartPos(size_t j) { return kPageUsableSize - 2 - 4 * (j + 1); }
uint16_t RestartOffset(const uint8_t* page, size_t j) {
  return LoadU16(page + RestartPos(j));
}
uint16_t RestartIndex(const uint8_t* page, size_t j) {
  return LoadU16(page + RestartPos(j) + 2);
}
void SetRestart(uint8_t* page, size_t j, uint16_t offset, uint16_t index) {
  StoreU16(page + RestartPos(j), offset);
  StoreU16(page + RestartPos(j) + 2, index);
}

/// Length of the common prefix of two keys (equal 8-byte words skipped
/// whole: sibling keys share most of their 33 bytes).
size_t CommonLen(const Key& a, const Key& b) {
  size_t n = 0;
  while (n + 8 <= kKeySize &&
         std::memcmp(a.data() + n, b.data() + n, 8) == 0) {
    n += 8;
  }
  while (n < kKeySize && a[n] == b[n]) ++n;
  return n;
}

/// Restart directory pairs needed for n entries at the fresh interval.
size_t RestartsFor(size_t n) {
  return (n + kRestartInterval - 1) / kRestartInterval;
}

/// Exact encoded size of entries[i..i+k) as one fresh page (header, prefix,
/// entry bytes, restart directory).
size_t EncodedSize(const Entry* entries, size_t i, size_t k) {
  if (k == 0) return kPrefixOff + 2;
  size_t prefix =
      k >= 2 ? CommonLen(entries[i].key, entries[i + k - 1].key) : kKeySize;
  size_t bytes = kPrefixOff + prefix + 2 + 4 * RestartsFor(k);
  for (size_t j = 0; j < k; ++j) {
    size_t shared = 0;
    if (j % kRestartInterval != 0) {
      shared = CommonLen(entries[i + j - 1].key, entries[i + j].key);
      if (shared > prefix) shared -= prefix; else shared = 0;
    }
    bytes += kEntryFixed + (kKeySize - prefix - shared);
  }
  return bytes;
}

/// Forward decoder over a compressed page. The key is materialized
/// incrementally: prefix bytes are loaded once, each entry overwrites only
/// its suffix, so sequential iteration touches each byte once.
struct Cursor {
  const uint8_t* page;
  size_t prefix_len;
  size_t count;
  size_t idx = 0;         // slot of the current entry
  size_t off = 0;         // byte offset of the current entry
  size_t entry_size = 0;  // byte size of the current entry
  Key key{};
  uint64_t value = 0;

  explicit Cursor(const uint8_t* p) : page(p) {
    prefix_len = PrefixLen(p);
    count = PageCount(p);
    std::memcpy(key.data(), p + kPrefixOff, prefix_len);
  }

  void DecodeEntry() {
    const uint8_t* e = page + off;
    uint8_t shared = e[0];
    uint8_t suffix = e[1];
    std::memcpy(key.data() + prefix_len + shared, e + 2, suffix);
    std::memcpy(&value, e + 2 + suffix, 8);
    entry_size = kEntryFixed + suffix;
  }

  /// Positions at the head of run j (its restart entry).
  void SeekRun(size_t j) {
    off = RestartOffset(page, j);
    idx = RestartIndex(page, j);
    DecodeEntry();
  }

  bool Next() {
    off += entry_size;
    if (++idx >= count) return false;
    DecodeEntry();
    return true;
  }

  /// Index of the run whose entries cover slot i (last restart with
  /// index <= i; i may be == count for append positions).
  size_t RunOf(size_t i) const {
    size_t lo = 0, hi = RestartCount(page);
    while (lo + 1 < hi) {
      size_t mid = (lo + hi) / 2;
      if (RestartIndex(page, mid) <= i) lo = mid; else hi = mid;
    }
    return lo;
  }

  /// Positions at slot i (restart jump, then a short linear decode).
  void SeekSlot(size_t i) {
    SeekRun(RunOf(i));
    while (idx < i) Next();
  }
};

/// Encodes entries[0..n) into `out` starting at entry offset `base`,
/// recording restart (offset, index) pairs with indices offset by
/// `index_base`. Returns one past the last entry byte written.
size_t EncodeEntries(uint8_t* out, size_t base, const Entry* entries, size_t n,
                     size_t prefix, size_t index_base,
                     std::vector<std::pair<uint16_t, uint16_t>>* restarts) {
  size_t off = base;
  for (size_t j = 0; j < n; ++j) {
    size_t shared = 0;
    if (j % kRestartInterval == 0) {
      restarts->emplace_back(static_cast<uint16_t>(off),
                             static_cast<uint16_t>(index_base + j));
    } else {
      shared = CommonLen(entries[j - 1].key, entries[j].key);
      if (shared > prefix) shared -= prefix; else shared = 0;
    }
    size_t suffix = kKeySize - prefix - shared;
    out[off] = static_cast<uint8_t>(shared);
    out[off + 1] = static_cast<uint8_t>(suffix);
    std::memcpy(out + off + 2, entries[j].key.data() + prefix + shared,
                suffix);
    std::memcpy(out + off + 2 + suffix, &entries[j].value, 8);
    off += kEntryFixed + suffix;
  }
  return off;
}

}  // namespace

bool IsCompressed(const uint8_t* page) {
  return page[kFormatOff] == kLeafFormatCompressed;
}

bool BuildLeaf(uint8_t* page, const Entry* entries, size_t n, uint32_t next,
               uint32_t prev) {
  if (EncodedSize(entries, 0, n) > kPageUsableSize) return false;
  uint8_t scratch[kPageUsableSize];
  std::memset(scratch, 0, sizeof(scratch));
  size_t prefix =
      n >= 2 ? CommonLen(entries[0].key, entries[n - 1].key)
             : (n == 1 ? kKeySize : 0);
  scratch[0] = 1;  // is_leaf
  scratch[kFormatOff] = kLeafFormatCompressed;
  SetPageCount(scratch, static_cast<uint16_t>(n));
  std::memcpy(scratch + kNextOff, &next, 4);
  std::memcpy(scratch + kPrevOff, &prev, 4);
  StoreU16(scratch + kPrefixLenOff, static_cast<uint16_t>(prefix));
  if (n > 0) std::memcpy(scratch + kPrefixOff, entries[0].key.data(), prefix);
  std::vector<std::pair<uint16_t, uint16_t>> restarts;
  size_t end =
      EncodeEntries(scratch, kPrefixOff + prefix, entries, n, prefix, 0,
                    &restarts);
  SetDataEnd(scratch, static_cast<uint16_t>(end));
  SetRestartCount(scratch, static_cast<uint16_t>(restarts.size()));
  for (size_t j = 0; j < restarts.size(); ++j) {
    SetRestart(scratch, j, restarts[j].first, restarts[j].second);
  }
  std::memcpy(page, scratch, kPageUsableSize);
  return true;
}

size_t MaxLeafTake(const Entry* entries, size_t i, size_t n, size_t budget) {
  RUIDX_DCHECK(i < n, "MaxLeafTake past the end");
  RUIDX_DCHECK(budget <= kPageUsableSize, "MaxLeafTake budget over a page");
  // One forward pass. The page prefix of consecutive ascending keys is the
  // least shared length of any adjacent pair among them, so each
  // candidate count's EncodedSize follows from the previous one after one
  // CommonLen against the predecessor: run heads store 33 - prefix key
  // bytes, every other entry 33 - shared. The size grows strictly with the
  // count, so the first count over budget ends the scan, and at most
  // budget / (kEntryFixed + 1) entries are ever compared — every entry after
  // the first stores at least one suffix byte.
  size_t prefix = kKeySize;
  size_t non_head_bytes = 0;
  size_t k = 1;
  for (; i + k < n; ++k) {
    size_t shared = CommonLen(entries[i + k - 1].key, entries[i + k].key);
    size_t next_prefix = std::min(prefix, shared);
    size_t next_non_head =
        non_head_bytes +
        (k % kRestartInterval != 0 ? kKeySize - shared : 0);
    size_t runs = RestartsFor(k + 1);
    size_t bytes = kPrefixOff + next_prefix + 2 + 4 * runs +
                   (k + 1) * kEntryFixed + runs * (kKeySize - next_prefix) +
                   next_non_head;
    if (bytes > budget) break;
    prefix = next_prefix;
    non_head_bytes = next_non_head;
  }
  RUIDX_DCHECK(k == 1 || EncodedSize(entries, i, k) <= budget,
               "MaxLeafTake overshot its budget");
  return k;
}

void KeyAt(const uint8_t* page, size_t i, Key* out) {
  Cursor c(page);
  c.SeekSlot(i);
  *out = c.key;
}

uint64_t ValueAt(const uint8_t* page, size_t i) {
  Cursor c(page);
  c.SeekSlot(i);
  return c.value;
}

void SetValueAt(uint8_t* page, size_t i, uint64_t value) {
  Cursor c(page);
  c.SeekSlot(i);
  std::memcpy(page + c.off + c.entry_size - 8, &value, 8);
}

size_t LowerBound(const uint8_t* page, const Key& key, bool* exact) {
  *exact = false;
  size_t count = PageCount(page);
  if (count == 0) return 0;
  size_t prefix = PrefixLen(page);
  // Every key in the page starts with the prefix: one comparison against it
  // settles targets that diverge before the suffix bytes.
  int pc = std::memcmp(key.data(), page + kPrefixOff, prefix);
  if (pc < 0) return 0;
  if (pc > 0) return count;
  // Binary search the restart heads (shared == 0, so a head's suffix is
  // directly comparable), then decode forward inside one run.
  size_t nrestart = RestartCount(page);
  size_t lo = 0, hi = nrestart;  // last run whose head key <= target
  while (lo + 1 < hi) {
    size_t mid = (lo + hi) / 2;
    const uint8_t* e = page + RestartOffset(page, mid);
    int c = std::memcmp(e + 2, key.data() + prefix, e[1]);
    if (c <= 0) lo = mid; else hi = mid;
  }
  Cursor cur(page);
  cur.SeekRun(lo);
  for (;;) {
    int c = std::memcmp(cur.key.data(), key.data(), kKeySize);
    if (c == 0) {
      *exact = true;
      return cur.idx;
    }
    if (c > 0) return cur.idx;
    if (!cur.Next()) return count;
  }
}

void ForEachEntry(const uint8_t* page,
                  const std::function<bool(size_t, const Key&, uint64_t)>& fn) {
  if (PageCount(page) == 0) return;
  Cursor c(page);
  c.SeekRun(0);
  do {
    if (!fn(c.idx, c.key, c.value)) return;
  } while (c.Next());
}

void DecodeAll(const uint8_t* page, std::vector<Entry>* out) {
  out->clear();
  out->reserve(PageCount(page));
  ForEachEntry(page, [&](size_t, const Key& key, uint64_t value) {
    out->push_back(Entry{key, value});
    return true;
  });
}

namespace {

/// Shared tail of InsertAt/EraseAt: splices the re-encoded run
/// [run_start_off, old_run_end_off) -> `encoded` back into the page and
/// patches every later restart's offset (by the byte delta) and index (by
/// `index_delta`). Run `r` keeps its directory slot unless it emptied.
void SpliceRun(uint8_t* page, size_t r, size_t run_start_off,
               size_t old_run_end_off, const uint8_t* encoded,
               size_t encoded_len, int index_delta) {
  size_t data_end = DataEnd(page);
  ptrdiff_t delta =
      static_cast<ptrdiff_t>(encoded_len) -
      static_cast<ptrdiff_t>(old_run_end_off - run_start_off);
  std::memmove(page + run_start_off + encoded_len, page + old_run_end_off,
               data_end - old_run_end_off);
  std::memcpy(page + run_start_off, encoded, encoded_len);
  SetDataEnd(page, static_cast<uint16_t>(data_end + delta));
  size_t nrestart = RestartCount(page);
  if (encoded_len == 0) {
    // The run emptied: drop its directory slot (later pairs shift up one).
    for (size_t j = r; j + 1 < nrestart; ++j) {
      SetRestart(page, j, RestartOffset(page, j + 1),
                 RestartIndex(page, j + 1));
    }
    SetRestartCount(page, static_cast<uint16_t>(--nrestart));
    // Fall through: the shifted pairs still need the offset/index patch,
    // starting from the slot that now holds the first later run.
  } else {
    ++r;
  }
  for (size_t j = r; j < nrestart; ++j) {
    SetRestart(page, j,
               static_cast<uint16_t>(RestartOffset(page, j) + delta),
               static_cast<uint16_t>(RestartIndex(page, j) + index_delta));
  }
}

}  // namespace

InsertOutcome InsertAt(uint8_t* page, size_t idx, const Key& key,
                       uint64_t value) {
  size_t count = PageCount(page);
  if (count == 0) return InsertOutcome::kRebuild;
  size_t prefix = PrefixLen(page);
  if (std::memcmp(key.data(), page + kPrefixOff, prefix) != 0) {
    return InsertOutcome::kRebuild;
  }
  Cursor c(page);
  size_t r = c.RunOf(idx == count ? count - 1 : idx);
  size_t run_start = RestartIndex(page, r);
  size_t run_end = r + 1 < RestartCount(page) ? RestartIndex(page, r + 1)
                                              : count;
  if (run_end - run_start + 1 > kMaxRunLength) return InsertOutcome::kRebuild;
  // Decode the run, splice the new entry in, re-encode.
  std::vector<Entry> run;
  run.reserve(run_end - run_start + 1);
  c.SeekRun(r);
  size_t run_start_off = c.off;
  for (size_t i = run_start; i < run_end; ++i) {
    run.push_back(Entry{c.key, c.value});
    c.Next();  // advances c.off past the entry even at the page end
  }
  size_t old_run_end_off = c.off;
  run.insert(run.begin() + (idx - run_start), Entry{key, value});
  uint8_t encoded[kMaxRunLength * (kEntryFixed + kKeySize)];
  std::vector<std::pair<uint16_t, uint16_t>> head;
  size_t encoded_len =
      EncodeEntries(encoded, 0, run.data(), run.size(), prefix, 0, &head);
  size_t data_end = DataEnd(page);
  size_t dir_floor = RestartPos(RestartCount(page) - 1);
  if (data_end - (old_run_end_off - run_start_off) + encoded_len > dir_floor) {
    return InsertOutcome::kNoRoom;
  }
  SpliceRun(page, r, run_start_off, old_run_end_off, encoded, encoded_len,
            /*index_delta=*/1);
  SetPageCount(page, static_cast<uint16_t>(count + 1));
  return InsertOutcome::kDone;
}

void EraseAt(uint8_t* page, size_t idx) {
  size_t count = PageCount(page);
  RUIDX_DCHECK(idx < count, "EraseAt past the end");
  Cursor c(page);
  size_t r = c.RunOf(idx);
  size_t run_start = RestartIndex(page, r);
  size_t run_end = r + 1 < RestartCount(page) ? RestartIndex(page, r + 1)
                                              : count;
  std::vector<Entry> run;
  run.reserve(run_end - run_start);
  c.SeekRun(r);
  size_t run_start_off = c.off;
  for (size_t i = run_start; i < run_end; ++i) {
    if (i != idx) run.push_back(Entry{c.key, c.value});
    c.Next();  // advances c.off past the entry even at the page end
  }
  size_t old_run_end_off = c.off;
  uint8_t encoded[kMaxRunLength * (kEntryFixed + kKeySize)];
  std::vector<std::pair<uint16_t, uint16_t>> head;
  size_t encoded_len =
      EncodeEntries(encoded, 0, run.data(), run.size(), PrefixLen(page), 0,
                    &head);
  SpliceRun(page, r, run_start_off, old_run_end_off, encoded, encoded_len,
            /*index_delta=*/-1);
  SetPageCount(page, static_cast<uint16_t>(count - 1));
}

Status ValidateLeaf(const uint8_t* page) {
  if (!IsCompressed(page) || page[0] != 1) {
    return Status::Corruption("not a compressed leaf page");
  }
  size_t count = PageCount(page);
  size_t prefix = PrefixLen(page);
  size_t data_end = DataEnd(page);
  size_t nrestart = RestartCount(page);
  if (prefix > kKeySize) {
    return Status::Corruption("[restart-point-order] prefix longer than key");
  }
  size_t dir_floor =
      nrestart > 0 ? RestartPos(nrestart - 1) : kPageUsableSize - 2;
  if (data_end < kPrefixOff + prefix || data_end > dir_floor) {
    return Status::Corruption("[restart-point-order] data end out of bounds");
  }
  if ((count == 0) != (nrestart == 0)) {
    return Status::Corruption(
        "[restart-point-order] restart count disagrees with entry count");
  }
  // Restart pairs must march strictly forward in both offset and index,
  // start at the first entry, and bound run lengths.
  for (size_t j = 0; j < nrestart; ++j) {
    size_t off = RestartOffset(page, j);
    size_t idx = RestartIndex(page, j);
    if (j == 0 && (off != kPrefixOff + prefix || idx != 0)) {
      return Status::Corruption(
          "[restart-point-order] first restart not at the first entry");
    }
    if (j > 0 && (off <= RestartOffset(page, j - 1) ||
                  idx <= RestartIndex(page, j - 1))) {
      return Status::Corruption(
          "[restart-point-order] restart pairs out of order");
    }
    if (off >= data_end && count > 0) {
      return Status::Corruption(
          "[restart-point-order] restart points past the data region");
    }
    size_t end = j + 1 < nrestart ? RestartIndex(page, j + 1) : count;
    if (end <= idx || end - idx > kMaxRunLength) {
      return Status::Corruption("[restart-point-order] bad run length");
    }
  }
  if (count == 0) return Status::OK();
  // Walk every entry: suffix accounting, run heads at restart offsets,
  // strictly ascending keys, final offset landing exactly on data_end.
  Cursor c(page);
  c.SeekRun(0);
  Key prev{};
  size_t next_restart = 1;
  for (;;) {
    const uint8_t* e = page + c.off;
    if (e[0] + e[1] != kKeySize - prefix) {
      return Status::Corruption(
          "[compressed-page-reconstruction] entry suffix accounting broken");
    }
    bool at_head = next_restart <= nrestart &&
                   c.idx == RestartIndex(page, next_restart - 1);
    if (at_head && RestartOffset(page, next_restart - 1) != c.off) {
      return Status::Corruption(
          "[restart-point-order] restart offset misses its entry");
    }
    if (at_head && e[0] != 0) {
      return Status::Corruption(
          "[compressed-page-reconstruction] run head shares bytes");
    }
    if (c.idx > 0 &&
        std::memcmp(prev.data(), c.key.data(), kKeySize) >= 0) {
      return Status::Corruption(
          "[compressed-page-reconstruction] keys out of order");
    }
    if (at_head) ++next_restart;
    prev = c.key;
    if (!c.Next()) break;
  }
  // Next() advanced c.off past the final entry before reporting the end.
  if (c.off != data_end) {
    return Status::Corruption(
        "[compressed-page-reconstruction] entries do not end at data end");
  }
  // Round-trip, run by run: re-encoding each run's decoded entries must
  // reproduce the run's bytes exactly (the page is a fixed point of its own
  // codec under its current run chunking — a stale suffix, wrong shared
  // count, or phantom byte cannot survive this).
  for (size_t j = 0; j < nrestart; ++j) {
    size_t run_start = RestartIndex(page, j);
    size_t run_end = j + 1 < nrestart ? RestartIndex(page, j + 1) : count;
    std::vector<Entry> run;
    run.reserve(run_end - run_start);
    Cursor rc(page);
    rc.SeekRun(j);
    for (size_t i = run_start; i < run_end; ++i) {
      run.push_back(Entry{rc.key, rc.value});
      rc.Next();  // advances rc.off past the entry even at the page end
    }
    size_t run_off = RestartOffset(page, j);
    uint8_t encoded[kMaxRunLength * (kEntryFixed + kKeySize)];
    std::vector<std::pair<uint16_t, uint16_t>> heads;
    size_t encoded_len =
        EncodeEntries(encoded, 0, run.data(), run.size(), prefix, 0, &heads);
    if (encoded_len != rc.off - run_off ||
        std::memcmp(encoded, page + run_off, encoded_len) != 0) {
      return Status::Corruption(
          "[compressed-page-reconstruction] run " + std::to_string(j) +
          " does not re-encode to its stored bytes");
    }
  }
  return Status::OK();
}

void AccumulateStats(const uint8_t* page, PageStats* stats) {
  size_t count = PageCount(page);
  size_t prefix = PrefixLen(page);
  stats->entries += count;
  stats->key_bytes_raw += count * kKeySize;
  stats->key_bytes_stored += prefix;
  size_t nrestart = RestartCount(page);
  for (size_t j = 0; j < nrestart; ++j) {
    size_t end = j + 1 < nrestart ? RestartIndex(page, j + 1) : count;
    size_t len = std::min<size_t>(end - RestartIndex(page, j), kMaxRunLength);
    ++stats->run_length_histogram[len];
  }
  size_t off = kPrefixOff + prefix;
  size_t data_end = DataEnd(page);
  while (off < data_end) {
    const uint8_t* e = page + off;
    stats->key_bytes_stored += 2 + e[1];
    off += kEntryFixed + e[1];
  }
}

}  // namespace leaf
}  // namespace storage
}  // namespace ruidx
