#include "util/cpu.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace phissl::util {

namespace {

CpuFeatures probe() {
  CpuFeatures f;
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  f.avx512f = __builtin_cpu_supports("avx512f") != 0;
  f.avx512ifma = __builtin_cpu_supports("avx512ifma") != 0;
  // avx also checks that the OS saves the YMM state.
  f.avx = __builtin_cpu_supports("avx") != 0;
  unsigned a = 0, b = 0, c = 0, d = 0;
  const bool sse41 = __get_cpuid(1, &a, &b, &c, &d) && (c & bit_SSE4_1);
  f.aes = (c & bit_AES) != 0;
  f.sha = sse41 && __get_cpuid_count(7, 0, &a, &b, &c, &d) && (b & bit_SHA);
#endif
  return f;
}

}  // namespace

const CpuFeatures& cpu_features() {
  static const CpuFeatures f = probe();
  return f;
}

}  // namespace phissl::util
