#include "ssl/prf.hpp"

#include "util/hmac.hpp"

namespace phissl::ssl {

std::vector<std::uint8_t> prf_sha256(std::span<const std::uint8_t> secret,
                                     std::string_view label,
                                     std::span<const std::uint8_t> seed,
                                     std::size_t len) {
  // P_SHA256 over label_seed = label || seed:
  //   A(0) = label_seed; A(i) = HMAC(secret, A(i-1));
  //   output = HMAC(secret, A(1) || label_seed) || HMAC(secret, A(2) || ...)
  // Every HMAC is a copy of one keyed object, so the secret is absorbed
  // once per call rather than twice per output block.
  const util::HmacSha256 keyed(secret);
  const std::span<const std::uint8_t> label_bytes(
      reinterpret_cast<const std::uint8_t*>(label.data()), label.size());
  const auto mac_label_seed = [&](std::span<const std::uint8_t> prefix) {
    util::HmacSha256 h = keyed;
    h.update(prefix);
    h.update(label_bytes);
    h.update(seed);
    return h.finish();
  };

  std::vector<std::uint8_t> out;
  out.reserve(len + util::Sha256::kDigestSize);
  util::Sha256::Digest a = mac_label_seed({});  // A(1)
  while (out.size() < len) {
    const auto block = mac_label_seed(a);
    out.insert(out.end(), block.begin(), block.end());
    if (out.size() < len) {
      util::HmacSha256 h = keyed;
      h.update(a);
      a = h.finish();
    }
  }
  out.resize(len);
  return out;
}

}  // namespace phissl::ssl
