#include "dh/dh.hpp"

#include <stdexcept>

#include "mont/modexp.hpp"
#include "util/random.hpp"

namespace phissl::dh {

using bigint::BigInt;

bool Params::looks_valid() const {
  if (p.is_negative() || p.is_even() || p.bit_length() < 64) return false;
  if (g <= BigInt{1} || g >= p - BigInt{1}) return false;
  return true;
}

const Params& rfc3526_group14() {
  static const Params params = [] {
    Params out;
    out.p = BigInt::from_hex(
        "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
        "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
        "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
        "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
        "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
        "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
        "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
        "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF");
    out.g = BigInt{2};
    return out;
  }();
  return params;
}

const Params& rfc2409_group2() {
  static const Params params = [] {
    Params out;
    out.p = BigInt::from_hex(
        "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
        "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
        "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
        "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF");
    out.g = BigInt{2};
    return out;
  }();
  return params;
}

Dh::Dh(Params params, rsa::Backend backend) : params_(std::move(params)) {
  if (!params_.looks_valid()) {
    throw std::invalid_argument("Dh: invalid group parameters");
  }
  ctx_ = std::make_unique<rsa::AnyCtx>(rsa::make_ctx(backend, params_.p));
}

BigInt Dh::mod_exp(const BigInt& base, const BigInt& exp) const {
  return std::visit(
      [&](const auto& c) { return mont::fixed_window_exp(c, base, exp); },
      *ctx_);
}

KeyPair Dh::generate_keypair(util::Rng& rng) const {
  KeyPair kp;
  // x in [2, p-2].
  kp.x = BigInt::random_below(params_.p - BigInt{3}, rng) + BigInt{2};
  kp.y = mod_exp(params_.g, kp.x);
  return kp;
}

BigInt Dh::compute_shared(const BigInt& x, const BigInt& peer_y) const {
  if (peer_y <= BigInt{1} || peer_y >= params_.p - BigInt{1}) {
    throw std::invalid_argument("Dh::compute_shared: degenerate peer value");
  }
  return mod_exp(peer_y, x);
}

}  // namespace phissl::dh
