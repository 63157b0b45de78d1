#include "core/simd_dispatch.h"

#include <cstdio>
#include <cstdlib>

namespace dehealth {

const char* SimdModeName(SimdMode mode) {
  switch (mode) {
    case SimdMode::kAuto:
      return "auto";
    case SimdMode::kScalar:
      return "scalar";
    case SimdMode::kAvx2:
      return "avx2";
  }
  return "auto";
}

StatusOr<SimdMode> ParseSimdMode(const std::string& value) {
  if (value == "auto") return SimdMode::kAuto;
  if (value == "scalar") return SimdMode::kScalar;
  if (value == "avx2") return SimdMode::kAvx2;
  return Status::InvalidArgument(
      "simd mode must be auto, scalar, or avx2 (got '" + value + "')");
}

SimdMode DetectCpuSimd() {
#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
  if (__builtin_cpu_supports("avx2")) return SimdMode::kAvx2;
#endif
  return SimdMode::kScalar;
}

namespace {

/// DEHEALTH_SIMD, parsed once per process. kAuto when unset, "auto", or
/// unparseable.
SimdMode EnvSimdMode() {
  static const SimdMode cached = [] {
    const char* env = std::getenv("DEHEALTH_SIMD");
    if (env == nullptr || *env == '\0') return SimdMode::kAuto;
    StatusOr<SimdMode> parsed = ParseSimdMode(env);
    if (!parsed.ok()) {
      std::fprintf(stderr,
                   "warning: ignoring DEHEALTH_SIMD='%s' (%s)\n", env,
                   parsed.status().ToString().c_str());
      return SimdMode::kAuto;
    }
    return *parsed;
  }();
  return cached;
}

}  // namespace

SimdMode ResolveSimdMode(SimdMode requested) {
  SimdMode mode = requested;
  if (mode == SimdMode::kAuto) mode = EnvSimdMode();
  const SimdMode widest = DetectCpuSimd();
  if (mode == SimdMode::kAuto) return widest;
  // Clamp a request the CPU cannot honor down to the widest supported tier.
  if (static_cast<int>(mode) > static_cast<int>(widest)) return widest;
  return mode;
}

}  // namespace dehealth
