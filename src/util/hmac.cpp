#include "util/hmac.hpp"

#include <algorithm>

#include "util/wipe.hpp"

namespace phissl::util {

HmacSha256::HmacSha256(std::span<const std::uint8_t> key) {
  std::array<std::uint8_t, Sha256::kBlockSize> block{};
  if (key.size() > block.size()) {
    const auto digest = Sha256::hash(key);
    std::copy(digest.begin(), digest.end(), block.begin());
  } else {
    std::copy(key.begin(), key.end(), block.begin());
  }
  for (auto& b : block) b ^= 0x36;
  inner_.update(block);
  for (auto& b : block) b ^= 0x36 ^ 0x5c;
  outer_.update(block);
  secure_wipe(block.data(), block.size());
}

void HmacSha256::update(std::span<const std::uint8_t> data) {
  inner_.update(data);
}

Sha256::Digest HmacSha256::finish() {
  outer_.update(inner_.finish());
  return outer_.finish();
}

Sha256::Digest HmacSha256::mac(std::span<const std::uint8_t> key,
                               std::span<const std::uint8_t> data) {
  HmacSha256 h(key);
  h.update(data);
  return h.finish();
}

}  // namespace phissl::util
