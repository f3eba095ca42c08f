// BigUint: arbitrary-precision unsigned integer.
//
// The original UID numbering scheme assigns identifiers that grow like
// k^depth (k = maximal fan-out); the paper notes that "the value easily
// exceeds the maximal manageable integer value" and that "additional
// purpose-specific libraries are necessary". This is that library.
//
// Representation: little-endian array of 64-bit words with no trailing zero
// words. Values that fit in a single word are stored inline (no heap
// allocation), which keeps the common ruid case — indices below 2^64 — as
// cheap as a plain uint64_t.
#ifndef RUIDX_UTIL_BIGUINT_H_
#define RUIDX_UTIL_BIGUINT_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "util/result.h"

namespace ruidx {

/// Two machine words. The ruid fast paths (PackedRuid2Id, the KTable
/// mirror, the storage key codec) run on this type: the storage key format
/// caps identifier components at 128 bits, so a 2-word packed range covers
/// every storable identifier.
using uint128_t = unsigned __int128;

class BigUint {
 public:
  /// Zero.
  BigUint() : size_(1), cap_(0) { inline_ = 0; }

  /// From a machine word.
  BigUint(uint64_t v) : size_(1), cap_(0) { inline_ = v; }  // NOLINT

  BigUint(const BigUint& other);
  BigUint(BigUint&& other) noexcept;
  BigUint& operator=(const BigUint& other);
  BigUint& operator=(BigUint&& other) noexcept;
  ~BigUint() { ReleaseHeap(); }

  /// Parses a base-10 string of digits. Fails on empty input or non-digits.
  static Result<BigUint> FromDecimalString(std::string_view s);

  /// b^e computed by square-and-multiply.
  static BigUint Pow(const BigUint& base, uint64_t exponent);

  bool IsZero() const { return size_ == 1 && words()[0] == 0; }

  /// True iff the value fits in a uint64_t.
  bool FitsUint64() const { return size_ == 1; }

  /// The low 64 bits (the full value when FitsUint64()).
  uint64_t ToUint64() const { return words()[0]; }

  /// True iff the value fits in two words.
  bool FitsUint128() const { return size_ <= 2; }

  /// The low 128 bits (the full value when FitsUint128()).
  uint128_t ToUint128() const {
    uint128_t v = words()[0];
    if (size_ > 1) v |= static_cast<uint128_t>(words()[1]) << 64;
    return v;
  }

  /// From two machine words.
  static BigUint FromUint128(uint128_t v);

  /// Number of significant bits; 0 for zero.
  int BitWidth() const;

  /// Number of 64-bit words in the representation.
  int WordCount() const { return static_cast<int>(size_); }

  int Compare(const BigUint& other) const;
  bool operator==(const BigUint& o) const { return Compare(o) == 0; }
  bool operator!=(const BigUint& o) const { return Compare(o) != 0; }
  bool operator<(const BigUint& o) const { return Compare(o) < 0; }
  bool operator<=(const BigUint& o) const { return Compare(o) <= 0; }
  bool operator>(const BigUint& o) const { return Compare(o) > 0; }
  bool operator>=(const BigUint& o) const { return Compare(o) >= 0; }

  BigUint& operator+=(const BigUint& o);
  BigUint& operator+=(uint64_t o);
  /// Subtraction; `o` must not exceed *this (checked in debug builds).
  BigUint& operator-=(const BigUint& o);
  BigUint& operator-=(uint64_t o);
  BigUint& operator*=(uint64_t o);
  BigUint& operator*=(const BigUint& o);

  friend BigUint operator+(BigUint a, const BigUint& b) { return a += b; }
  friend BigUint operator+(BigUint a, uint64_t b) { return a += b; }
  friend BigUint operator-(BigUint a, const BigUint& b) { return a -= b; }
  friend BigUint operator-(BigUint a, uint64_t b) { return a -= b; }
  friend BigUint operator*(BigUint a, uint64_t b) { return a *= b; }
  friend BigUint operator*(BigUint a, const BigUint& b) { return a *= b; }

  /// Divides by a 64-bit divisor, returning the quotient and storing the
  /// remainder in *remainder (may be null). Divisor must be non-zero.
  BigUint DivMod(uint64_t divisor, uint64_t* remainder) const;

  /// Quotient of division by a 64-bit divisor.
  BigUint operator/(uint64_t divisor) const { return DivMod(divisor, nullptr); }

  /// Remainder of division by a 64-bit divisor.
  uint64_t operator%(uint64_t divisor) const {
    uint64_t r = 0;
    DivMod(divisor, &r);
    return r;
  }

  std::string ToDecimalString() const;

  /// Writes the value big-endian into exactly `n` bytes (zero padded).
  /// Returns false when the value needs more than n bytes.
  bool ToBytesBE(uint8_t* out, size_t n) const;

  /// Reads a big-endian byte string.
  static BigUint FromBytesBE(const uint8_t* data, size_t n);

  /// FNV-style hash over the words, suitable for unordered containers.
  size_t Hash() const;

 private:
  const uint64_t* words() const { return cap_ == 0 ? &inline_ : heap_; }
  uint64_t* words() { return cap_ == 0 ? &inline_ : heap_; }
  void ReleaseHeap() {
    if (cap_ != 0) delete[] heap_;
  }
  /// Ensures room for n words, preserving the current value's words.
  void Reserve(uint32_t n);
  /// Drops trailing zero words (keeps at least one word).
  void Trim();

  union {
    uint64_t inline_;
    uint64_t* heap_;
  };
  uint32_t size_;  // number of significant words, >= 1
  uint32_t cap_;   // heap capacity in words; 0 => value stored inline
};

struct BigUintHash {
  size_t operator()(const BigUint& v) const { return v.Hash(); }
};

}  // namespace ruidx

#endif  // RUIDX_UTIL_BIGUINT_H_
