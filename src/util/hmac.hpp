// HMAC-SHA-256 (RFC 2104 / FIPS 198-1). The object keeps only the
// midstates after key ^ ipad and key ^ opad, so callers that MAC many
// messages under one key (the TLS PRF, the record layer) key once and copy
// the keyed object, saving the two compressions keying costs.
#pragma once

#include <cstdint>
#include <span>

#include "util/sha256.hpp"

namespace phissl::util {

class HmacSha256 {
 public:
  /// Keys longer than the 64-byte block are hashed first, per the spec.
  explicit HmacSha256(std::span<const std::uint8_t> key);

  void update(std::span<const std::uint8_t> data);
  /// Returns the MAC. The object must not be used afterwards; copy a keyed
  /// object before its first update to MAC the next message.
  Sha256::Digest finish();

  /// One-shot convenience.
  static Sha256::Digest mac(std::span<const std::uint8_t> key,
                            std::span<const std::uint8_t> data);

 private:
  Sha256 inner_;  // has absorbed key ^ ipad, then the message so far
  Sha256 outer_;  // has absorbed key ^ opad
};

}  // namespace phissl::util
