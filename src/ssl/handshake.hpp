// Client and server handshake state machines.
//
// Full handshake (TLS 1.2 RSA key transport shape):
//   client -> ClientHello
//   server -> ServerHello(session_id), Certificate
//   client -> ClientKeyExchange (premaster encrypted to the server key),
//             Finished(client)
//   server -> Finished(server)              [session cached on success]
//
// Abbreviated handshake (session resumption — skips the RSA operation):
//   client -> ClientHello(session_id)
//   server -> ServerHello(resumed), Finished(server)
//   client -> Finished(client)
//
// Key schedule (TLS 1.2 PRF, SHA-256):
//   master   = PRF(premaster, "master secret", client_random || server_random)
//   verify_* = PRF(master, "client|server finished", transcript_hash)[0..12)
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "rsa/engine.hpp"
#include "ssl/messages.hpp"
#include "ssl/record.hpp"
#include "ssl/result.hpp"
#include "ssl/session_cache.hpp"
#include "util/random.hpp"
#include "util/sha256.hpp"

namespace phissl::ssl {

/// Derives the 48-byte master secret via the TLS 1.2 PRF:
/// PRF(premaster, "master secret", client_random || server_random).
MasterSecret derive_master(std::span<const std::uint8_t> premaster,
                           const Random& client_random,
                           const Random& server_random);

/// Finished verify_data (RFC 5246 §7.4.9):
/// PRF(master, "client|server finished", transcript_hash)[0..12).
std::array<std::uint8_t, kVerifyDataSize> compute_verify_data(
    const MasterSecret& master, const util::Sha256::Digest& transcript,
    bool is_server);

/// True iff `fin` carries the verify_data compute_verify_data() gives,
/// compared in constant time by util::ctb::ct_eq_mask, the kernel the
/// record MAC compare uses (Finished values are secret-derived).
bool finished_matches(const Finished& fin, const MasterSecret& master,
                      const util::Sha256::Digest& transcript, bool is_server);

/// The server's first flight: always a ServerHello; a Certificate on the
/// full path; an immediate server Finished on the resumed path.
struct ServerFlight1 {
  ServerHello hello;
  std::optional<Certificate> certificate;  // full handshake only
  std::optional<Finished> finished;        // resumption only
};

/// Server side of the handshake. One instance per connection; the RSA
/// engine and the session cache are shared across connections.
class ServerHandshake {
 public:
  /// engine serves the certificate's public half, and its private key
  /// the blocking on_key_exchange(). cache may be null (resumption offers
  /// are then ignored and sessions are not cached).
  ServerHandshake(const rsa::Engine& engine, util::Rng& rng,
                  SessionCache* cache = nullptr);

  /// Step 1: consume ClientHello. Decides full vs. resumed.
  Result<ServerFlight1> on_client_hello(const ClientHello& hello);

  /// Step 2 (full path): consume ClientKeyExchange + client Finished;
  /// emits the server Finished. This is where the RSA private op runs.
  /// Equivalent to on_key_exchange_begin + decrypt + _complete below,
  /// with a scalar CRT decryption on this thread.
  Result<Finished> on_key_exchange(const ClientKeyExchange& kex,
                                   const Finished& client_fin);

  /// Step 2a (full path, asynchronous form): consume the
  /// ClientKeyExchange, absorb it into the transcript, and pre-draw the
  /// Bleichenbacher fallback premaster (RFC 5246 §7.4.7.1 requires the
  /// random substitute to exist BEFORE the decryption outcome is known).
  /// The caller then decrypts kex.encrypted_premaster however it likes —
  /// the reactor submits it to a BatchDecryptService and parks the
  /// connection, or resolves it inline — and finishes with
  /// on_key_exchange_complete().
  /// No other handshake step may run in between.
  Result<Unit> on_key_exchange_begin(const ClientKeyExchange& kex);

  /// Step 2b: deliver the decryption outcome (nullopt, or a block of the
  /// wrong length, selects the pre-drawn random premaster — every failure
  /// mode converges on the same kBadFinished the Bleichenbacher
  /// countermeasure demands) together with the client Finished; emits the
  /// server Finished and caches the session, exactly like the tail of
  /// on_key_exchange().
  Result<Finished> on_key_exchange_complete(
      const std::optional<std::vector<std::uint8_t>>& decrypted,
      const Finished& client_fin);

  /// Step 2 (resumed path): consume the client Finished.
  Result<Unit> on_resumed_client_finished(const Finished& client_fin);

  /// Established master secret (set after a successful handshake).
  [[nodiscard]] const std::optional<MasterSecret>& master() const {
    return master_;
  }

  /// True when the established session was resumed from the cache.
  [[nodiscard]] bool resumed() const { return resumed_; }

  /// Traffic keys for the established session (RFC 5246 key expansion).
  /// Only valid once master() is set.
  [[nodiscard]] SessionKeys session_keys() const;

 private:
  enum class State {
    kExpectHello,
    kExpectKeyExchange,
    kAwaitKexCompletion,  // between on_key_exchange_begin and _complete
    kExpectResumedFinished,
    kEstablished,
  };

  const rsa::Engine& engine_;
  util::Rng& rng_;
  SessionCache* cache_;
  State state_ = State::kExpectHello;
  bool resumed_ = false;
  SessionId session_id_{};
  // Bleichenbacher fallback premaster, drawn in on_key_exchange_begin()
  // before the decryption outcome exists (see on_key_exchange).
  std::array<std::uint8_t, kPremasterSize> fallback_premaster_{};
  Random client_random_{};
  Random server_random_{};
  util::Sha256 transcript_;
  std::optional<MasterSecret> master_;
};

/// A client-side handle to a completed session, reusable for resumption.
struct ResumableSession {
  SessionId id{};
  MasterSecret master{};
};

/// Client side of the handshake.
class ClientHandshake {
 public:
  /// engine needs only the server's public key.
  ClientHandshake(const rsa::Engine& engine, util::Rng& rng);

  /// Step 1: produce ClientHello; pass a previous session to offer
  /// resumption.
  ClientHello start(const std::optional<ResumableSession>& resume = {});

  /// Step 2 (full path): consume ServerHello + Certificate, produce
  /// ClientKeyExchange and the client Finished.
  Result<std::pair<ClientKeyExchange, Finished>> on_server_hello(
      const ServerHello& hello, const Certificate& cert);

  /// Step 2 (resumed path): consume ServerHello + server Finished,
  /// produce the client Finished.
  Result<Finished> on_resumed_hello(const ServerHello& hello,
                                    const Finished& server_fin);

  /// Step 3 (full path): verify the server Finished.
  Result<Unit> on_server_finished(const Finished& fin);

  [[nodiscard]] const std::optional<MasterSecret>& master() const {
    return master_;
  }

  /// True when the established session was resumed.
  [[nodiscard]] bool resumed() const { return resumed_; }

  /// Handle for resuming this session later. Only valid once established.
  [[nodiscard]] ResumableSession resumable() const;

  /// Traffic keys for the established session. Only valid once master()
  /// is set.
  [[nodiscard]] SessionKeys session_keys() const;

 private:
  enum class State {
    kStart,
    kSentHello,
    kSentKeyExchange,
    kEstablished,
  };

  const rsa::Engine& engine_;
  util::Rng& rng_;
  State state_ = State::kStart;
  bool resumed_ = false;
  bool offered_resumption_ = false;
  SessionId session_id_{};  // offered or server-assigned
  std::optional<MasterSecret> offered_master_;
  Random client_random_{};
  Random server_random_{};
  util::Sha256 transcript_;
  std::optional<MasterSecret> master_;
};

}  // namespace phissl::ssl
