// DSA (FIPS 186-4) over the configurable Montgomery kernels — the third
// public-key algorithm of classic libcrypto alongside RSA and DH. Lives in
// the dh module: it operates in the same finite-field subgroup setting.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "bigint/bigint.hpp"
#include "rsa/backend.hpp"

namespace phissl::util {
class Rng;
}

namespace phissl::dsa {

/// Domain parameters: p (L-bit prime), q (N-bit prime dividing p-1),
/// g (generator of the order-q subgroup).
struct Params {
  bigint::BigInt p;
  bigint::BigInt q;
  bigint::BigInt g;
};

/// Generates (L, N) parameters; L must be a multiple of 64, N < L.
/// Test-scale generation (random search, not the FIPS seed procedure).
Params generate_params(std::size_t l_bits, std::size_t n_bits,
                       util::Rng& rng);

struct KeyPair {
  bigint::BigInt x;  ///< private, in [1, q-1]
  bigint::BigInt y;  ///< public, g^x mod p
};

struct Signature {
  bigint::BigInt r;
  bigint::BigInt s;
};

class Dsa {
 public:
  Dsa(Params params, rsa::Backend backend = rsa::Backend::kKncVec);

  [[nodiscard]] const Params& params() const { return params_; }

  [[nodiscard]] KeyPair generate_keypair(util::Rng& rng) const;

  /// Signs SHA-256(message). Retries internally on the (negligible)
  /// r == 0 or s == 0 cases.
  [[nodiscard]] Signature sign(std::span<const std::uint8_t> message,
                               const bigint::BigInt& x, util::Rng& rng) const;

  /// Verifies a signature against the public key y.
  [[nodiscard]] bool verify(std::span<const std::uint8_t> message,
                            const Signature& sig,
                            const bigint::BigInt& y) const;

 private:
  bigint::BigInt mod_exp_p(const bigint::BigInt& base,
                           const bigint::BigInt& exp) const;
  bigint::BigInt hash_to_z(std::span<const std::uint8_t> message) const;

  Params params_;
  std::unique_ptr<rsa::AnyCtx> ctx_p_;
};

}  // namespace phissl::dsa
