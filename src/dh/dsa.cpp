#include "dh/dsa.hpp"

#include <stdexcept>

#include "mont/modexp.hpp"
#include "util/random.hpp"
#include "util/sha256.hpp"

namespace phissl::dsa {

using bigint::BigInt;

Params generate_params(std::size_t l_bits, std::size_t n_bits,
                       util::Rng& rng) {
  if (n_bits >= l_bits || n_bits < 32 || l_bits % 64 != 0) {
    throw std::invalid_argument("dsa::generate_params: bad (L, N)");
  }
  const BigInt q = BigInt::random_prime(n_bits, rng, 24);
  // Search for p = k*q + 1 with exactly l_bits bits.
  for (;;) {
    BigInt k = BigInt::random_bits(l_bits - n_bits, rng);
    // Force the product into the right range: set the top bit of k.
    BigInt top{1};
    top <<= (l_bits - n_bits - 1);
    k += top;
    if (k.is_odd()) k += BigInt{1};  // keep p = k*q + 1 odd (q odd, k even)
    const BigInt p = k * q + BigInt{1};
    if (p.bit_length() != l_bits) continue;
    if (!p.is_probable_prime(16, rng)) continue;
    // Generator of the order-q subgroup: g = h^((p-1)/q) mod p != 1.
    for (std::int64_t h = 2; h < 100; ++h) {
      const BigInt g = BigInt{h}.mod_pow(k, p);
      if (!g.is_one()) {
        Params params;
        params.p = p;
        params.q = q;
        params.g = g;
        return params;
      }
    }
  }
}

Dsa::Dsa(Params params, rsa::Backend backend) : params_(std::move(params)) {
  if (params_.p.is_even() || params_.q.is_even() ||
      params_.g <= BigInt{1} || params_.g >= params_.p ||
      ((params_.p - BigInt{1}) % params_.q) != BigInt{}) {
    throw std::invalid_argument("Dsa: invalid domain parameters");
  }
  ctx_p_ = std::make_unique<rsa::AnyCtx>(rsa::make_ctx(backend, params_.p));
}

BigInt Dsa::mod_exp_p(const BigInt& base, const BigInt& exp) const {
  return std::visit(
      [&](const auto& c) { return mont::fixed_window_exp(c, base, exp); },
      *ctx_p_);
}

BigInt Dsa::hash_to_z(std::span<const std::uint8_t> message) const {
  // z = leftmost min(N, 256) bits of SHA-256(message) (FIPS 186-4 §4.6).
  const auto digest = util::Sha256::hash(message);
  BigInt z = BigInt::from_bytes_be(digest);
  const std::size_t n_bits = params_.q.bit_length();
  if (n_bits < 256) z >>= (256 - n_bits);
  return z;
}

KeyPair Dsa::generate_keypair(util::Rng& rng) const {
  KeyPair kp;
  kp.x = BigInt::random_below(params_.q - BigInt{1}, rng) + BigInt{1};
  kp.y = mod_exp_p(params_.g, kp.x);
  return kp;
}

Signature Dsa::sign(std::span<const std::uint8_t> message, const BigInt& x,
                    util::Rng& rng) const {
  const BigInt z = hash_to_z(message);
  for (;;) {
    const BigInt k = BigInt::random_below(params_.q - BigInt{1}, rng) + BigInt{1};
    const BigInt r = mod_exp_p(params_.g, k).mod(params_.q);
    if (r.is_zero()) continue;
    const BigInt k_inv = k.mod_inverse(params_.q);
    const BigInt s = (k_inv * (z + x * r)).mod(params_.q);
    if (s.is_zero()) continue;
    return Signature{r, s};
  }
}

bool Dsa::verify(std::span<const std::uint8_t> message, const Signature& sig,
                 const BigInt& y) const {
  if (sig.r <= BigInt{} || sig.r >= params_.q || sig.s <= BigInt{} ||
      sig.s >= params_.q) {
    return false;
  }
  if (y <= BigInt{1} || y >= params_.p) return false;
  const BigInt z = hash_to_z(message);
  BigInt w;
  try {
    w = sig.s.mod_inverse(params_.q);
  } catch (const std::domain_error&) {
    return false;
  }
  const BigInt u1 = (z * w).mod(params_.q);
  const BigInt u2 = (sig.r * w).mod(params_.q);
  const BigInt v =
      (mod_exp_p(params_.g, u1) * mod_exp_p(y, u2)).mod(params_.p).mod(params_.q);
  return v == sig.r;
}

}  // namespace phissl::dsa
