// Serialization of the ruid global parameters (κ and table K, Sec. 2.1).
//
// The pair (κ, K) is everything rparent() and the order routines need; it
// is deliberately small ("loaded into the main memory during travelling
// T"). Persisting it lets a process answer structural queries over
// identifiers — ancestor checks, order comparisons, axis candidate
// generation — without the document, e.g. next to an element store or on a
// remote site (Sec. 4, "managing data sources scattered over several
// sites").
#ifndef RUIDX_CORE_GLOBAL_STATE_H_
#define RUIDX_CORE_GLOBAL_STATE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "core/ktable.h"
#include "util/result.h"

namespace ruidx {
namespace core {

struct GlobalState {
  uint64_t kappa = 1;
  KTable ktable;
};

/// Binary encoding (versioned, endian-stable).
std::string SerializeGlobalState(uint64_t kappa, const KTable& ktable);

/// Inverse of SerializeGlobalState. Fails on truncated or foreign input.
Result<GlobalState> DeserializeGlobalState(std::string_view data);

/// Convenience file wrappers.
Status SaveGlobalState(uint64_t kappa, const KTable& ktable,
                       const std::string& path);
Result<GlobalState> LoadGlobalState(const std::string& path);

}  // namespace core
}  // namespace ruidx

#endif  // RUIDX_CORE_GLOBAL_STATE_H_
