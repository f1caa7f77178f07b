// Finite-field Diffie-Hellman key agreement — the other modexp consumer
// in libcrypto, and the basis of the DHE-RSA handshake path in src/ssl.
// All exponentiations run on the configurable Montgomery kernels, so DH
// benefits from the paper's vectorization exactly like RSA does.
#pragma once

#include <cstdint>
#include <memory>

#include "bigint/bigint.hpp"
#include "rsa/backend.hpp"

namespace phissl::util {
class Rng;
}

namespace phissl::dh {

/// Group parameters: prime modulus p and generator g.
struct Params {
  bigint::BigInt p;
  bigint::BigInt g;

  /// Structural checks: p odd prime-sized, g in (1, p-1).
  [[nodiscard]] bool looks_valid() const;
};

/// RFC 3526 group 14: the 2048-bit MODP group, g = 2. The standard choice
/// for DHE in the TLS 1.2 era.
const Params& rfc3526_group14();

/// A 1024-bit MODP group (RFC 2409 group 2) for faster tests/benches.
const Params& rfc2409_group2();

struct KeyPair {
  bigint::BigInt x;  ///< private exponent
  bigint::BigInt y;  ///< public value g^x mod p
};

/// DH context with a precomputed Montgomery context for p.
class Dh {
 public:
  Dh(Params params, rsa::Backend backend = rsa::Backend::kKncVec);

  [[nodiscard]] const Params& params() const { return params_; }

  /// Fresh key pair; x is drawn from [2, p-2].
  [[nodiscard]] KeyPair generate_keypair(util::Rng& rng) const;

  /// Shared secret y_peer^x mod p. Throws std::invalid_argument if the
  /// peer value is outside (1, p-1) (small-subgroup/degenerate guard).
  [[nodiscard]] bigint::BigInt compute_shared(const bigint::BigInt& x,
                                              const bigint::BigInt& peer_y) const;

 private:
  bigint::BigInt mod_exp(const bigint::BigInt& base,
                         const bigint::BigInt& exp) const;

  Params params_;
  std::unique_ptr<rsa::AnyCtx> ctx_;
};

}  // namespace phissl::dh
