// The RSA computation engine: raw modular-exponentiation operations over a
// choice of Montgomery kernel, exponentiation schedule, CRT, and blinding.
//
// The three systems the paper compares are presets over this one class
// (see src/baseline/engines.hpp):
//   PhiOpenSSL    = Vector kernel + fixed window + CRT
//   MPSS-like     = Scalar32 kernel + sliding window + CRT
//   OpenSSL-like  = Scalar64 kernel + sliding window + CRT
//
// All Montgomery contexts are precomputed at construction, so per-op cost
// is the exponentiation itself — matching how libcrypto caches BN_MONT_CTX
// inside the RSA object.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "bigint/bigint.hpp"
#include "mont/ifma_pair.hpp"
#include "rsa/backend.hpp"
#include "rsa/key.hpp"

namespace phissl::util {
class Rng;
}

namespace phissl::rsa {

/// Which exponentiation schedule drives the kernel.
enum class Schedule {
  kFixedWindow,    ///< the paper's method (uniform, constant-time gather)
  kSlidingWindow,  ///< OpenSSL's BN_mod_exp schedule
};

/// Human-readable names for table headers and logs ("fixed-window", ...).
const char* to_string(Schedule s);

/// The full configuration space every experiment sweeps: kernel ×
/// schedule × window × CRT × blinding × digit width. Defaults are the
/// paper's PhiOpenSSL configuration; src/baseline/engines.hpp holds the
/// presets for all three named systems.
struct EngineOptions {
  /// Montgomery backend of every context the engine builds (see
  /// rsa/backend.hpp).
  Backend kernel = Backend::kKncVec;
  Schedule schedule = Schedule::kFixedWindow;
  /// Window width; <= 0 selects mont::choose_window() per exponent.
  int window = 0;
  /// Use CRT for private operations (requires p/q in the key).
  bool use_crt = true;
  /// Base blinding for private operations (requires an Rng per op).
  bool blinding = false;
  /// Digit width for the vector kernel's redundant radix.
  unsigned digit_bits = 27;
};

/// One configured RSA computation engine: raw public/private modular
/// exponentiation over the kernel/schedule/CRT/blinding choice in its
/// EngineOptions. Montgomery contexts for n (and p/q when CRT) are
/// precomputed at construction; all methods are const and safe to call
/// concurrently (per-thread workspaces back the *_into fast paths).
/// With CRT, the fixed-window schedule and an ifma52 backend, the two
/// halves run together on one dual-modulus context (mont::IfmaPairCtx);
/// every other combination runs them one after the other.
/// Padding lives elsewhere: pkcs1.hpp consumes these raw ops.
class Engine {
 public:
  /// Engine over a full private key (public + private ops available).
  Engine(PrivateKey key, EngineOptions opts);

  /// Engine over a public key only (private_op throws).
  Engine(PublicKey key, EngineOptions opts);

  [[nodiscard]] const PublicKey& pub() const { return pub_; }
  [[nodiscard]] const EngineOptions& options() const { return opts_; }
  [[nodiscard]] bool has_private() const { return priv_.has_value(); }

  /// The private key this engine was constructed over. Throws
  /// std::logic_error for a public-only engine. Callers use it to build
  /// sibling contexts over the same key — e.g. the TLS driver seeding a
  /// 16-lane BatchEngine for coalesced handshake decryptions.
  [[nodiscard]] const PrivateKey& priv() const;

  /// RSA public operation: x^e mod n. x must be in [0, n).
  [[nodiscard]] bigint::BigInt public_op(const bigint::BigInt& x) const;

  /// RSA private operation: x^d mod n (via CRT when enabled).
  /// x must be in [0, n). rng is required when blinding is enabled.
  [[nodiscard]] bigint::BigInt private_op(const bigint::BigInt& x,
                                          util::Rng* rng = nullptr) const;

  /// Private operation writing into `out`, drawing every intermediate from
  /// per-thread workspaces: after one warm-up call per thread at a given
  /// key size, a call performs no heap allocation (the property bench/test
  /// workspace_test verifies). Blinding still allocates (it draws fresh
  /// random blinding factors); out must not alias x.
  void private_op_into(const bigint::BigInt& x, bigint::BigInt& out,
                       util::Rng* rng = nullptr) const;

 private:
  bigint::BigInt mod_exp(const AnyCtx& ctx, const bigint::BigInt& base,
                         const bigint::BigInt& exp) const;
  void mod_exp_into(const AnyCtx& ctx, const bigint::BigInt& base,
                    const bigint::BigInt& exp, bigint::BigInt& out) const;

  bigint::BigInt private_op_crt(const bigint::BigInt& x) const;
  void private_op_crt_into(const bigint::BigInt& x, bigint::BigInt& out) const;

  PublicKey pub_;
  std::optional<PrivateKey> priv_;
  EngineOptions opts_;

  std::unique_ptr<AnyCtx> ctx_n_;  // modulus n (public op; non-CRT private)
  std::unique_ptr<AnyCtx> ctx_p_;  // prime p (CRT, halves in sequence)
  std::unique_ptr<AnyCtx> ctx_q_;  // prime q (CRT, halves in sequence)
  std::unique_ptr<mont::IfmaPairCtx> pair_;  // p and q (CRT, halves together)
};

}  // namespace phissl::rsa
