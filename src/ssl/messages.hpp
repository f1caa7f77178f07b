// Handshake message types for the TLS-1.2-RSA-key-transport-shaped
// protocol the throughput experiments drive.
//
// The paper's motivation is that the SSL handshake is bottlenecked by the
// server's RSA private-key operation (decrypting the ClientKeyExchange).
// This module reproduces exactly that message flow — ClientHello,
// ServerHello + certificate, ClientKeyExchange carrying a PKCS#1-encrypted
// premaster secret, and Finished verification — over in-memory structs
// instead of sockets, so the computational path (and nothing else) is
// exercised.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "rsa/key.hpp"

namespace phissl::ssl {

constexpr std::size_t kRandomSize = 32;
constexpr std::size_t kPremasterSize = 48;
constexpr std::size_t kMasterSize = 48;      // RFC 5246 §8.1
constexpr std::size_t kVerifyDataSize = 12;  // RFC 5246 §7.4.9
constexpr std::uint16_t kCipherRsaWithSha256 = 0x003d;

using Random = std::array<std::uint8_t, kRandomSize>;
using MasterSecret = std::array<std::uint8_t, kMasterSize>;

struct ClientHello {
  Random client_random{};
  std::vector<std::uint16_t> cipher_suites;
  /// Session id offered for resumption; empty/nullopt for a full handshake.
  std::optional<std::array<std::uint8_t, 32>> session_id;
};

struct ServerHello {
  Random server_random{};
  std::uint16_t chosen_suite = 0;
  /// Session id assigned (full handshake) or echoed (resumption).
  std::array<std::uint8_t, 32> session_id{};
  /// True when the server accepted the client's resumption offer.
  bool resumed = false;
};

struct Certificate {
  rsa::PublicKey server_key;
};

struct ClientKeyExchange {
  /// RSAES-PKCS1-v1_5 encryption of the 48-byte premaster secret.
  std::vector<std::uint8_t> encrypted_premaster;
};

struct Finished {
  std::array<std::uint8_t, kVerifyDataSize> verify_data{};
};

/// Alert sent when a handshake step fails.
enum class Alert {
  kHandshakeFailure,   ///< no common cipher suite
  /// A protected record that fails its MAC or padding check
  /// (async::ServerConnection), or a peer DH public value outside the
  /// group (DheServerHandshake::on_key_exchange, and the DHE client on
  /// the server's). Never a ClientKeyExchange that fails to decrypt:
  /// the RFC 5246 §7.4.7.1 random-premaster substitution turns that
  /// into kBadFinished, indistinguishable from a wrong-but-well-formed
  /// premaster (Bleichenbacher countermeasure).
  kDecryptError,
  kBadFinished,        ///< Finished verify_data mismatch
  kUnexpectedMessage,  ///< message out of state-machine order
};

const char* to_string(Alert a);

}  // namespace phissl::ssl
