// Prefix-compressed B+tree leaf pages (page format v2).
//
// The structural identifier keys the tree stores are order-preserving byte
// strings: sibling and descendant identifiers share long common prefixes
// (all keys of one area share the 16-byte global half; consecutive locals
// share most of their big-endian bytes). The legacy leaf layout spends 33
// bytes per key regardless; this codec stores, per page, the byte prefix
// common to every key once, and per slot only the bytes that differ from
// the previous key — the classic slotted-page front compression, with
// restart points every kRestartInterval slots so point lookups stay
// O(log runs + run length) and a slot edit stays local to its run.
//
// Compressed leaf layout (header bytes [0..12) keep the legacy meaning so
// chain walks and leaf detection never branch on format):
//   [0]  u8  is_leaf (1)
//   [1]  u8  format: kLeafFormatCompressed; 0 on legacy pages (allocation
//            zero-fills frames, so every pre-v2 page reads as legacy)
//   [2..4)   u16 count
//   [4..8)   u32 next_leaf
//   [8..12)  u32 prev_leaf
//   [12..14) u16 prefix_len P — bytes shared by every key in the page
//   [14..16) u16 data_end — one past the last entry byte (from page start)
//   [16..16+P) the page prefix
//   [16+P..data_end) entries, back to back:
//       u8 shared     bytes shared with the previous key, counted after
//                     the page prefix (0 for the first entry of a run)
//       u8 suffix_len remaining key bytes (shared + suffix_len = 33 - P)
//       suffix_len bytes of key suffix
//       u64 value (little-endian, unaligned)
// Restart directory, growing down from the page tail:
//   [kPageUsableSize-2..) u16 restart count R
//   restart j (j in [0,R)) at kPageUsableSize - 2 - 4*(j+1):
//       u16 entry byte offset (from page start), u16 entry index
// The directory stores explicit entry indices rather than assuming a fixed
// stride, so an insert or erase re-encodes only the touched run and patches
// the later directory entries — never the other runs' bytes.
#ifndef RUIDX_STORAGE_LEAF_CODEC_H_
#define RUIDX_STORAGE_LEAF_CODEC_H_

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/result.h"

namespace ruidx {
namespace storage {

namespace leaf {

constexpr size_t kKeySize = 33;  // mirrors BPlusTree::kKeySize
using Key = std::array<uint8_t, kKeySize>;

constexpr uint8_t kLeafFormatLegacy = 0;
constexpr uint8_t kLeafFormatCompressed = 2;

/// Fresh runs start every kRestartInterval entries; in-place inserts may
/// stretch a run to twice that before the page is re-encoded.
constexpr size_t kRestartInterval = 16;
constexpr size_t kMaxRunLength = 2 * kRestartInterval;

struct Entry {
  Key key;
  uint64_t value;
};

/// True iff the (leaf) page carries the compressed v2 format.
bool IsCompressed(const uint8_t* page);

/// Encodes `entries` (strictly ascending) into `page` as one compressed
/// leaf, preserving the header's count/next/prev fields for the caller to
/// set. Returns false (page unspecified) when the encoding does not fit.
/// next/prev links are written from the arguments.
bool BuildLeaf(uint8_t* page, const Entry* entries, size_t n, uint32_t next,
               uint32_t prev);

/// The largest number of entries of `entries[i..n)` (strictly ascending)
/// whose compressed encoding takes at most `budget` bytes, `budget` being at
/// most a page. At least 1 for i < n: a single entry always fits a page.
/// The work is proportional to the count returned, not to n - i.
size_t MaxLeafTake(const Entry* entries, size_t i, size_t n, size_t budget);

/// The key of slot `i` (restart-directory seek + run decode).
void KeyAt(const uint8_t* page, size_t i, Key* out);

/// The value of slot `i`.
uint64_t ValueAt(const uint8_t* page, size_t i);

/// Overwrites the value of slot `i` in place (key bytes untouched).
void SetValueAt(uint8_t* page, size_t i, uint64_t value);

/// Index of the first slot with key >= `key`; *exact set when equal.
size_t LowerBound(const uint8_t* page, const Key& key, bool* exact);

/// Sequential decode of every slot in order; return false to stop early.
void ForEachEntry(const uint8_t* page,
                  const std::function<bool(size_t, const Key&, uint64_t)>& fn);

/// Decodes the whole page.
void DecodeAll(const uint8_t* page, std::vector<Entry>* out);

/// Outcome of an in-place slot insert.
enum class InsertOutcome {
  kDone,     ///< inserted; only the touched run and the directory moved
  kRebuild,  ///< needs a whole-page re-encode (prefix mismatch or long run)
  kNoRoom,   ///< re-encode will not help; the caller must split
};

/// Inserts (key, value) at slot `idx`, re-encoding only the run containing
/// the slot. kRebuild when the key does not share the page prefix or the
/// run would exceed kMaxRunLength; kNoRoom when the page lacks the bytes.
InsertOutcome InsertAt(uint8_t* page, size_t idx, const Key& key,
                       uint64_t value);

/// Removes slot `idx`, re-encoding only its run and patching the restart
/// directory — deletions never rewrite bytes outside the touched run.
void EraseAt(uint8_t* page, size_t idx);

/// Structural check of one compressed page: restart-directory order
/// ([restart-point-order]) and full decode/re-encode reconstruction
/// ([compressed-page-reconstruction]). Returns Corruption with the
/// bracketed invariant name on the first violation.
Status ValidateLeaf(const uint8_t* page);

/// Per-page accounting for the compression observability surfaces
/// (`ruidx_tool check --store`, bench_compact).
struct PageStats {
  uint64_t entries = 0;
  uint64_t key_bytes_stored = 0;  // prefix + per-slot headers and suffixes
  uint64_t key_bytes_raw = 0;     // entries * kKeySize
  /// Histogram of run lengths, index = run length (clamped to
  /// kMaxRunLength); [0] unused.
  std::array<uint64_t, kMaxRunLength + 1> run_length_histogram{};
};
void AccumulateStats(const uint8_t* page, PageStats* stats);

}  // namespace leaf

/// \name Leaf compression switch
/// Process-wide toggle: with compression on (the default), fresh leaves —
/// bulk loads, splits, new roots — are written in the compressed v2 format;
/// legacy pages stay readable and writable either way (the format is
/// per-page, self-describing). Benchmarks flip it to measure the legacy
/// layout on the same binary.
/// @{
bool LeafCompressionEnabled();
void SetLeafCompressionEnabled(bool enabled);
/// @}

}  // namespace storage
}  // namespace ruidx

#endif  // RUIDX_STORAGE_LEAF_CODEC_H_
