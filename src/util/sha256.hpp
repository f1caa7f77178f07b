// SHA-256 (FIPS 180-4): PKCS#1 signatures, the handshake transcript,
// and through HMAC the TLS PRF and the record MAC. The SHA-NI
// compress runs when util::cpu_features() reports it; the portable one is
// the fallback and the reference the tests hold it to.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace phissl::util {

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  /// force_portable pins the portable compress (tests compare the paths).
  explicit Sha256(bool force_portable = false);

  /// Absorbs `data`; may be called repeatedly.
  void update(std::span<const std::uint8_t> data);

  /// Finalizes and returns the digest. The object must not be reused
  /// afterwards without reset().
  Digest finish();

  /// Returns the object to its initial state.
  void reset();

  /// One-shot convenience.
  static Digest hash(std::span<const std::uint8_t> data);

  /// True when this object runs the SHA-NI compress.
  [[nodiscard]] bool hardware() const;

 private:
  // Absorbs `nblocks` consecutive 64-byte blocks into `state`.
  void (*compress_)(std::uint32_t* state, const std::uint8_t* blocks,
                    std::size_t nblocks);
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, kBlockSize> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

}  // namespace phissl::util
