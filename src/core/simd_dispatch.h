#ifndef DEHEALTH_CORE_SIMD_DISPATCH_H_
#define DEHEALTH_CORE_SIMD_DISPATCH_H_

#include <string>

#include "common/status.h"

namespace dehealth {

/// Which instruction set the batched score kernel runs on. Every tier
/// produces bitwise-identical scores (see DESIGN.md "Score kernel"); the
/// choice is purely a throughput knob.
enum class SimdMode {
  kAuto = 0,    // --simd/env/cpuid resolution (never a resolved value)
  kScalar = 1,  // portable golden path, one candidate lane at a time
  kAvx2 = 3,    // 4-wide doubles (2 was the retired SSE2 tier)
};

/// Canonical lowercase name ("auto", "scalar", "avx2").
const char* SimdModeName(SimdMode mode);

/// Parses a --simd flag value; InvalidArgument on anything but
/// auto|scalar|avx2.
StatusOr<SimdMode> ParseSimdMode(const std::string& value);

/// The widest tier the running CPU supports (kAvx2 or kScalar).
SimdMode DetectCpuSimd();

/// Resolves a requested mode to the tier that will actually run — never
/// kAuto. Precedence: an explicit request wins; kAuto consults the
/// DEHEALTH_SIMD environment variable (same spelling as --simd; read once
/// per process) and then falls back to CPU detection. Requests wider than
/// the CPU supports clamp down (kAvx2 on a CPU without AVX2 runs kScalar);
/// an unparseable DEHEALTH_SIMD is ignored with a one-time warning.
SimdMode ResolveSimdMode(SimdMode requested);

}  // namespace dehealth

#endif  // DEHEALTH_CORE_SIMD_DISPATCH_H_
