// Montgomery backend selection: the one knob that picks which
// implementation carries the modular-exponentiation hot loop.
//
//   scalar32        - word-serial CIOS, 32-bit limbs (mont::MontCtx32;
//                     the MPSS-like baseline),
//   scalar64        - word-serial CIOS, 64-bit limbs (mont::MontCtx64;
//                     the OpenSSL-like baseline),
//   knc_vec         - the paper-faithful 16-lane redundant-radix kernels
//                     (mont::VectorMontCtx / mont::BatchVectorMontCtx),
//   ifma52          - radix-2^52 digits: the almost-Montgomery product for
//                     single streams (mont::IfmaMontCtx, and
//                     mont::IfmaPairCtx for the CRT op), truncated REDC
//                     across 16 lanes (mont::BatchIfmaMontCtx); vpmadd52
//                     when the CPU has AVX-512 IFMA, the portable u128
//                     instantiations otherwise,
//   ifma52-portable - the same contexts pinned to the portable u128 path.
//
// Every layer takes the choice as data: EngineOptions::kernel, Dh,
// BatchEngine, SignServiceConfig::backend (also BatchDecryptService's),
// DriverConfig::batch_backend and the bench --backend flags all hold a
// Backend, and make_ctx() is the one place that turns it into a
// single-stream context.
#pragma once

#include <array>
#include <optional>
#include <string_view>
#include <variant>

#include "bigint/bigint.hpp"
#include "mont/ifma_mont.hpp"
#include "mont/mont32.hpp"
#include "mont/mont64.hpp"
#include "mont/vector_mont.hpp"

namespace phissl::rsa {

/// Which Montgomery implementation carries the exponentiation hot loop.
enum class Backend {
  kScalar32,        ///< word-serial CIOS, 32-bit limbs (MPSS-like)
  kScalar64,        ///< word-serial CIOS, 64-bit limbs (OpenSSL-like)
  kKncVec,          ///< 16-lane redundant-radix SIMD (PhiOpenSSL)
  kIfma52,          ///< radix-2^52 kernels, vpmadd52 when available
  kIfma52Portable,  ///< radix-2^52 kernels, portable u128 path only
};

/// The engine-level name of the same knob (EngineOptions::kernel). The
/// benchmark sources under bench/e2e spell Kernel::kIfma52 and
/// Kernel::kScalar64.
using Kernel = Backend;

/// Every backend, in enum order.
inline constexpr std::array<Backend, 5> kAllBackends{
    Backend::kScalar32, Backend::kScalar64, Backend::kKncVec,
    Backend::kIfma52, Backend::kIfma52Portable};

/// "scalar32" / "scalar64" / "knc_vec" / "ifma52" / "ifma52-portable".
const char* to_string(Backend b);

/// Exact inverse of to_string; nullopt for any other name.
std::optional<Backend> backend_from_string(std::string_view name);

/// True for the backends with a 16-lane batched form (knc_vec, ifma52,
/// ifma52-portable). The scalar backends have none: batching IS the
/// vectorization.
bool has_batch_form(Backend b);

/// A single-stream Montgomery context of any backend; every alternative
/// satisfies the modexp Ctx concept (mont/modexp.hpp).
using AnyCtx = std::variant<mont::MontCtx32, mont::MontCtx64,
                            mont::VectorMontCtx, mont::IfmaMontCtx>;

/// Builds the `b` context for an odd modulus. digit_bits is the knc_vec
/// redundant-radix width; the other backends ignore it.
AnyCtx make_ctx(Backend b, const bigint::BigInt& modulus,
                unsigned digit_bits = 27);

}  // namespace phissl::rsa
