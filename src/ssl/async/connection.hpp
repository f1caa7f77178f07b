// Nonblocking per-connection handshake + record state machines for the
// TLS terminator's reactor.
//
// A thread-per-connection server burns one thread per in-flight
// handshake, parked for the whole batch linger window — so lane occupancy
// is bounded by thread count (16 lanes need 16 blocked threads). A
// ServerConnection instead makes every wait explicit state: it consumes
// whatever bytes have arrived, runs the handshake until the next blocking
// point, and then EXPOSES the blocking crypto step as a PendingOp for its
// owner (the Reactor) to resolve — submitted to the batch service, or
// resolved inline by resolve_pending_op() below. While a batch lingers,
// the connection object just sits in a table — no stack, no thread — and
// thousands of connections can be awaiting the same 16-lane batch from
// two worker threads.
//
// Server states and the transitions between them:
//
//   kReadingClientHello --(RSA hello)--> kSendingFlight -> kReadingKeyExchange
//        |  \--(resumed hello)--> kSendingFlight -> kReadingFinished
//        \--(DHE hello, admitted)--> kAwaitSignature
//                                        \--> kSendingFlight -> kReadingKeyExchange
//   kReadingKeyExchange --(CKX)--> kReadingFinished
//   kReadingFinished --(RSA fin, admitted)--> kAwaitPrivateOp
//        |                                      \--> kSendingFlight -> kEstablished
//        \--(resumed/DHE fin)--> kSendingFlight -> kEstablished
//   kEstablished --(AppData)--> echo --(Close)--> kClosed
//   any failure / shed --> kDraining (alert queued) --> kClosed
//
// The two kAwait* states are the completion-resumption bridge: the
// connection yields a PendingOp{kPrivateOp|kSign}, its owner resolves it
// (batched and async, or inline), and on_crypto_result() re-arms the
// machine. Admission (admission.hpp) is consulted at the instant a
// PendingOp would be created — a shed connection never submits crypto
// work.
//
// Threading: a connection is NOT thread-safe; the reactor guarantees at
// most one thread runs a given connection at a time (completion callbacks
// only enqueue resume events, they never touch the connection directly).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dh/dh.hpp"
#include "rsa/engine.hpp"
#include "ssl/async/admission.hpp"
#include "ssl/async/wire.hpp"
#include "ssl/dhe_handshake.hpp"
#include "ssl/handshake.hpp"
#include "ssl/record.hpp"
#include "ssl/session_cache.hpp"
#include "util/random.hpp"

namespace phissl::ssl::async {

/// Connection lifecycle states (see file comment for the transitions).
enum class ConnState {
  kReadingClientHello,
  kReadingKeyExchange,
  kReadingFinished,
  kAwaitPrivateOp,  // parked on the RSA decryption
  kAwaitSignature,  // parked on the RSA signature (DHE)
  kSendingFlight,   // output queued; advances when take_output drains it
  kEstablished,
  kDraining,  // alert/close queued after failure or shed
  kClosed,
};

const char* to_string(ConnState s);

/// One blocking crypto step the state machine needs resolved before it
/// can advance. The owner resolves it (BatchDecryptService::*_async or
/// resolve_pending_op() in the reactor) and feeds the result back through
/// on_crypto_result(). With admission control, each op holds one slot of
/// the AdmissionController, which the owner releases when the op
/// completes or is discarded.
struct PendingOp {
  enum class Kind {
    kPrivateOp,  // payload = ClientKeyExchange ciphertext; result =
                 // decrypted premaster (nullopt on padding failure)
    kSign,       // payload = 32-byte digest; result = signature block
  };
  Kind kind{};
  std::vector<std::uint8_t> payload;
};

/// Resolves `op` on the calling thread with `engine`, which must hold the
/// private key: an RSAES-PKCS1-v1_5 decryption for kPrivateOp (nullopt on
/// a malformed ciphertext or bad padding, exactly as the batch service
/// reports it), an EMSA-PKCS1-v1_5 encoding of the digest and a private op
/// for kSign. `rng` is passed to the engine when it blinds. This is the
/// reactor's scalar decrypter.
std::optional<std::vector<std::uint8_t>> resolve_pending_op(
    const rsa::Engine& engine, const PendingOp& op, util::Rng& rng);

/// Server half of one terminated connection. Pure state machine: all I/O
/// is byte spans in (on_input) and byte buffers out (take_output); all
/// crypto waits surface as PendingOps.
class ServerConnection {
 public:
  /// Shared, connection-count-independent dependencies. engine serves the
  /// certificate; cache enables resumption (may be null); admission gates
  /// PendingOp creation (may be null = admit everything); dhe_group
  /// enables the DHE-RSA suite (may be null = RSA key transport only).
  ServerConnection(const rsa::Engine& engine, std::uint64_t rng_seed,
                   SessionCache* cache, AdmissionController* admission,
                   const dh::Dh* dhe_group);

  /// Feeds received bytes and runs the machine as far as it can go.
  /// Arbitrary chunking — byte-at-a-time works.
  void on_input(std::span<const std::uint8_t> bytes);

  /// Drains up to max_bytes of queued output (0 = everything). A short
  /// read models a full kernel socket buffer: the remainder stays queued
  /// and kSendingFlight holds until a later call drains it.
  std::vector<std::uint8_t> take_output(std::size_t max_bytes = 0);

  /// The crypto step the machine is parked on, if it just parked; null
  /// otherwise. Ownership transfers — each op is yielded exactly once.
  std::optional<PendingOp> take_pending_op();

  /// True when a PendingOp is waiting to be taken (transports use this to
  /// stop exchanging bytes without consuming the op themselves).
  [[nodiscard]] bool has_pending_op() const { return pending_op_.has_value(); }

  /// Resolves the outstanding PendingOp: the decrypted premaster (or
  /// nullopt) for kPrivateOp, the signature block for kSign. Must only be
  /// called in the matching kAwait* state.
  void on_crypto_result(std::optional<std::vector<std::uint8_t>> result);

  [[nodiscard]] ConnState state() const { return state_; }
  /// True when the connection was rejected by admission control.
  [[nodiscard]] bool was_shed() const { return shed_; }
  /// True when the connection failed (alerted) for any non-shed reason.
  [[nodiscard]] bool failed() const { return failed_; }
  /// True when the completed handshake resumed a cached session.
  [[nodiscard]] bool resumed() const { return hs_ && hs_->resumed(); }
  /// Bytes currently queued for the peer.
  [[nodiscard]] std::size_t output_pending() const { return out_.size(); }

 private:
  void process();                       // run frames until a wait state
  void handle_frame(const Frame& f);    // one frame, in-state dispatch
  void queue(std::vector<std::uint8_t> bytes, ConnState after);
  void fail(Alert a);                   // alert + kDraining
  void shed_now();                      // admission rejection path
  bool establish_session(const SessionKeys& keys);

  const rsa::Engine& engine_;
  util::Rng rng_;
  SessionCache* cache_;
  AdmissionController* admission_;
  const dh::Dh* dhe_group_;

  FrameReader in_;
  std::vector<std::uint8_t> out_;
  ConnState state_ = ConnState::kReadingClientHello;
  ConnState after_flush_ = ConnState::kClosed;  // target once out_ drains

  // Exactly one of these engages once the ClientHello picks a suite.
  std::optional<ServerHandshake> hs_;
  std::optional<DheServerHandshake> dhe_hs_;

  // Held between frames: the RSA ciphertext (CKX received, Finished
  // pending), the client Finished (needed by _complete after the batch
  // resolves), and the DHE client public value.
  std::vector<std::uint8_t> kex_ct_;
  Finished client_fin_{};
  DheClientKeyExchange dhe_kex_{};

  std::optional<PendingOp> pending_op_;
  std::optional<Session> session_;  // record layer once established
  bool shed_ = false;
  bool failed_ = false;
};

/// Client half, used by tests and the bench driver to generate load. Also
/// a pure byte-in/byte-out machine, but allowed to run its (cheap —
/// public-key only) crypto inline: clients are load generators here, not
/// the system under test.
class ScriptedClient {
 public:
  /// engine needs only the server's public key. Offers resumption of
  /// `resume` when set; negotiates DHE-RSA when use_dhe.
  ScriptedClient(const rsa::Engine& engine, std::uint64_t rng_seed,
                 std::optional<ResumableSession> resume = std::nullopt,
                 bool use_dhe = false);

  /// Emits the ClientHello into the output buffer.
  void start();

  /// Replaces the default 4-byte "ping" echo payload with `n` patterned
  /// bytes (call before the handshake establishes). A large payload makes
  /// the server's echo flight span many kernel-buffer writes — how the
  /// socket-transport tests force the flight to split across EAGAIN.
  void set_ping_size(std::size_t n) {
    ping_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      ping_[i] = static_cast<std::uint8_t>(i * 31 + 7);
    }
  }

  /// Feeds server bytes; advances the handshake, echoes one "ping"
  /// application record, verifies the echo, and closes.
  void on_server_bytes(std::span<const std::uint8_t> bytes);

  /// Drains queued output for the server.
  std::vector<std::uint8_t> take_output();

  /// True once the ping echo round-trip verified and kClose was sent.
  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] bool failed() const { return failed_; }
  /// True when the server accepted this client's resumption offer.
  [[nodiscard]] bool resumed() const { return hs_ && hs_->resumed(); }
  /// Bytes queued for the server and not yet taken.
  [[nodiscard]] std::size_t output_pending() const { return out_.size(); }
  /// True when resumable() may be called: handshake done on the RSA
  /// key-transport suite (DHE sessions are not resumable here).
  [[nodiscard]] bool has_resumable() const { return done_ && hs_.has_value(); }
  /// Session handle for a later resumption offer; requires
  /// has_resumable().
  [[nodiscard]] ResumableSession resumable() const { return hs_->resumable(); }

 private:
  void process();
  void fail();

  const rsa::Engine& engine_;
  util::Rng rng_;
  bool use_dhe_;
  std::optional<ResumableSession> resume_;

  FrameReader in_;
  std::vector<std::uint8_t> out_;

  std::optional<ClientHandshake> hs_;
  std::optional<DheClientHandshake> dhe_hs_;
  std::optional<ServerHello> held_hello_;  // awaiting its certificate/skx
  std::optional<Certificate> held_cert_;   // DHE: awaiting the skx
  std::optional<Session> session_;
  std::vector<std::uint8_t> ping_{'p', 'i', 'n', 'g'};
  bool sent_kex_ = false;
  bool sent_ping_ = false;
  bool done_ = false;
  bool failed_ = false;
};

}  // namespace phissl::ssl::async
