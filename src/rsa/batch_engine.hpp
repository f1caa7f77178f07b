// Throughput-mode RSA: 16 private-key operations at a time, one per SIMD
// lane, sharing the key (and therefore the CRT exponents dp/dq across
// lanes). This is the batched signing mode of experiment E9 — the natural
// server workload for a 16-lane vector unit.
//
// Two batched Montgomery context families implement the lane math (see
// rsa/backend.hpp): the KNC-faithful redundant-radix kernels (knc_vec)
// and the host-side radix-2^52 lane kernels with truncated REDC
// (BatchIfmaMontCtx for ifma52 and ifma52-portable). The choice is made at
// construction and is invisible to callers — private_op has one shape.
#pragma once

#include <array>
#include <span>
#include <variant>

#include "mont/batch.hpp"
#include "rsa/backend.hpp"
#include "rsa/key.hpp"

namespace phissl::rsa {

class BatchEngine {
 public:
  static constexpr std::size_t kBatch = mont::BatchVectorMontCtx::kBatch;
  static_assert(kBatch == mont::BatchIfmaMontCtx::kBatch);

  /// Precomputes the batched Montgomery contexts for p and q over
  /// `backend`. Throws std::invalid_argument for a backend without a
  /// batched form (kScalar32, kScalar64; see has_batch_form). digit_bits
  /// only affects kKncVec (the ifma52 radix is fixed at 52).
  explicit BatchEngine(PrivateKey key, Backend backend = Backend::kIfma52,
                       unsigned digit_bits = 27);

  [[nodiscard]] const PublicKey& pub() const { return key_.pub; }

  /// The backend the lane contexts run: the one requested.
  [[nodiscard]] Backend backend() const { return backend_; }

  /// True when the lane contexts run the vpmadd52 kernels (kIfma52 on a
  /// binary and CPU with AVX-512 IFMA).
  [[nodiscard]] bool uses_ifma() const;

  /// 16 private ops (x^d mod n via CRT), lane-parallel.
  /// Every x must be in [0, n).
  [[nodiscard]] std::array<bigint::BigInt, kBatch> private_op(
      std::span<const bigint::BigInt> xs) const;

  /// Same, writing into `out` (16 entries) with all intermediates drawn
  /// from per-thread workspaces — no heap allocation after one warm-up
  /// call per thread at a given key size.
  void private_op(std::span<const bigint::BigInt> xs,
                  std::span<bigint::BigInt> out) const;

 private:
  template <typename Ctx>
  struct CtxPair {
    Ctx p, q;
  };
  using AnyCtxPair = std::variant<CtxPair<mont::BatchVectorMontCtx>,
                                  CtxPair<mont::BatchIfmaMontCtx>>;

  static AnyCtxPair make_ctxs(const PrivateKey& key, Backend backend,
                              unsigned digit_bits);

  PrivateKey key_;
  Backend backend_;
  AnyCtxPair ctxs_;
};

}  // namespace phissl::rsa
