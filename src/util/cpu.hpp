// Runtime CPU feature probe for kernel backend selection.
//
// The build may compile several Montgomery backends (the KNC-faithful
// 27-bit vector path, the radix-52 IFMA path, the scalar references); which
// one actually runs is decided at context-construction time from the
// requested rsa::Backend plus this probe (see rsa/backend.hpp). The record
// layer's SHA-256 compress and AES cipher pick their hardware paths from the
// same probe. It is evaluated once per process and cached.
#pragma once

namespace phissl::util {

struct CpuFeatures {
  bool avx512f = false;     ///< AVX-512 Foundation (512-bit vectors)
  bool avx512ifma = false;  ///< vpmadd52luq / vpmadd52huq available
  bool avx = false;         ///< VEX encoding usable (vzeroupper is legal)
  bool sha = false;         ///< SHA-NI (sha256rnds2 / msg1 / msg2) + SSE4.1
  bool aes = false;         ///< AES-NI (aesenc / aesdec / aeskeygenassist)
};

/// Cached one-time probe of the machine this process runs on. On non-x86
/// builds every feature reads false and the portable emulation paths run.
const CpuFeatures& cpu_features();

}  // namespace phissl::util
