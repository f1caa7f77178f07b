// TLS 1.2 record protection for AES-128-CBC + HMAC-SHA256
// (TLS_RSA_WITH_AES_128_CBC_SHA256, the suite the handshake negotiates):
// key-block derivation from the master secret, and the MAC-then-encrypt
// record transform with explicit IVs and sequence numbers. A channel keys
// its cipher and its HMAC once, at construction; each record copies the
// keyed HMAC instead of re-absorbing the MAC key.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ssl/messages.hpp"
#include "util/aes.hpp"
#include "util/hmac.hpp"
#include "util/random.hpp"

namespace phissl::ssl {

constexpr std::uint8_t kContentApplicationData = 23;
constexpr std::size_t kMacKeySize = 32;  // HMAC-SHA256
constexpr std::size_t kEncKeySize = 16;  // AES-128
constexpr std::size_t kIvSize = 16;

/// One direction of a protected connection. Sequence numbers are
/// maintained internally; records must be opened in the order sealed.
class RecordChannel {
 public:
  /// Sequence numbers never reach this value: reusing a (key, seq) MAC
  /// input after a 2^64 wrap would let old records replay, so both
  /// directions fail closed one short of the wrap (RFC 5246 §6.1 requires
  /// renegotiation before the space is exhausted).
  static constexpr std::uint64_t kSeqLimit = ~std::uint64_t{0};

  RecordChannel(std::span<const std::uint8_t> enc_key,
                std::span<const std::uint8_t> mac_key);

  /// Wipes the keyed-HMAC midstates (util::secure_wipe); util::Aes wipes
  /// its own round keys. No key material outlives the channel.
  ~RecordChannel();

  RecordChannel(const RecordChannel&) = default;
  RecordChannel& operator=(const RecordChannel&) = default;
  RecordChannel(RecordChannel&&) = default;
  RecordChannel& operator=(RecordChannel&&) = default;

  /// Protects one record: returns explicit_iv || CBC(plaintext || MAC).
  /// `rng` supplies the per-record IV. Throws std::runtime_error once the
  /// send sequence space is exhausted (fail closed; see kSeqLimit).
  std::vector<std::uint8_t> seal(std::uint8_t content_type,
                                 std::span<const std::uint8_t> plaintext,
                                 util::Rng& rng);

  /// Unprotects one record; returns nullopt on any authentication or
  /// format failure (single error signal — invalid CBC padding and a MAC
  /// mismatch follow the same code path: the MAC is always computed and
  /// compared in constant time before either failure is reported), and on
  /// receive-sequence exhaustion (fail closed, never wraps).
  std::optional<std::vector<std::uint8_t>> open(
      std::uint8_t content_type, std::span<const std::uint8_t> record);

  [[nodiscard]] std::uint64_t seal_seq() const { return seal_seq_; }
  [[nodiscard]] std::uint64_t open_seq() const { return open_seq_; }

  /// Test seam: pre-positions both sequence counters so the kSeqLimit
  /// fail-closed behavior is reachable without 2^64 records.
  void seq_override_for_testing(std::uint64_t seal_seq,
                                std::uint64_t open_seq) {
    seal_seq_ = seal_seq;
    open_seq_ = open_seq;
  }

 private:
  std::array<std::uint8_t, 32> mac_header(std::uint64_t seq,
                                          std::uint8_t type,
                                          std::size_t len,
                                          const std::uint8_t* data,
                                          std::size_t n) const;

  util::Aes cipher_;
  util::HmacSha256 mac_;  // keyed, never updated: copied per record
  std::uint64_t seal_seq_ = 0;
  std::uint64_t open_seq_ = 0;
};

/// The four traffic keys derived from the master secret (RFC 5246 §6.3):
/// key_block = PRF(master, "key expansion", server_random || client_random).
struct SessionKeys {
  std::array<std::uint8_t, kMacKeySize> client_mac_key;
  std::array<std::uint8_t, kMacKeySize> server_mac_key;
  std::array<std::uint8_t, kEncKeySize> client_enc_key;
  std::array<std::uint8_t, kEncKeySize> server_enc_key;
};

SessionKeys derive_session_keys(const MasterSecret& master,
                                const Random& client_random,
                                const Random& server_random);

/// A fully-keyed duplex session as one side sees it.
class Session {
 public:
  /// is_server selects which key set seals outgoing records.
  Session(const SessionKeys& keys, bool is_server);

  /// Protects application data for the peer.
  std::vector<std::uint8_t> send(std::span<const std::uint8_t> data,
                                 util::Rng& rng);

  /// Unprotects application data from the peer.
  std::optional<std::vector<std::uint8_t>> receive(
      std::span<const std::uint8_t> record);

 private:
  RecordChannel out_;
  RecordChannel in_;
};

}  // namespace phissl::ssl
