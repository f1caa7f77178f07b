#include "ssl/async/connection.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "rsa/pkcs1.hpp"

namespace phissl::ssl::async {

namespace {

void append(std::vector<std::uint8_t>& out,
            const std::vector<std::uint8_t>& bytes) {
  out.insert(out.end(), bytes.begin(), bytes.end());
}

}  // namespace

const char* to_string(ConnState s) {
  switch (s) {
    case ConnState::kReadingClientHello: return "reading_client_hello";
    case ConnState::kReadingKeyExchange: return "reading_key_exchange";
    case ConnState::kReadingFinished: return "reading_finished";
    case ConnState::kAwaitPrivateOp: return "await_private_op";
    case ConnState::kAwaitSignature: return "await_signature";
    case ConnState::kSendingFlight: return "sending_flight";
    case ConnState::kEstablished: return "established";
    case ConnState::kDraining: return "draining";
    case ConnState::kClosed: return "closed";
  }
  return "?";
}

std::optional<std::vector<std::uint8_t>> resolve_pending_op(
    const rsa::Engine& engine, const PendingOp& op, util::Rng& rng) {
  util::Rng* blinding_rng = engine.options().blinding ? &rng : nullptr;
  if (op.kind == PendingOp::Kind::kPrivateOp) {
    return rsa::decrypt_pkcs1(engine, op.payload, blinding_rng);
  }
  const std::size_t k = engine.pub().byte_size();
  const auto em = rsa::emsa_pkcs1_v15_from_digest(op.payload, k);
  return engine.private_op(bigint::BigInt::from_bytes_be(em), blinding_rng)
      .to_bytes_be(k);
}

// --- ServerConnection -------------------------------------------------------

ServerConnection::ServerConnection(const rsa::Engine& engine,
                                   std::uint64_t rng_seed, SessionCache* cache,
                                   AdmissionController* admission,
                                   const dh::Dh* dhe_group)
    : engine_(engine),
      rng_(rng_seed),
      cache_(cache),
      admission_(admission),
      dhe_group_(dhe_group) {}

void ServerConnection::on_input(std::span<const std::uint8_t> bytes) {
  if (state_ == ConnState::kClosed) return;
  in_.feed(bytes);
  process();
}

std::vector<std::uint8_t> ServerConnection::take_output(std::size_t max_bytes) {
  const std::size_t n = (max_bytes == 0 || max_bytes >= out_.size())
                            ? out_.size()
                            : max_bytes;
  std::vector<std::uint8_t> chunk(out_.begin(),
                                  out_.begin() + static_cast<std::ptrdiff_t>(n));
  out_.erase(out_.begin(), out_.begin() + static_cast<std::ptrdiff_t>(n));
  if (out_.empty()) {
    // Flight fully flushed: resume the protocol state it was gating.
    if (state_ == ConnState::kSendingFlight) {
      state_ = after_flush_;
      process();  // frames may have queued up behind the flush
    } else if (state_ == ConnState::kDraining) {
      state_ = ConnState::kClosed;
    }
  }
  return chunk;
}

std::optional<PendingOp> ServerConnection::take_pending_op() {
  return std::exchange(pending_op_, std::nullopt);
}

void ServerConnection::queue(std::vector<std::uint8_t> bytes,
                             ConnState after) {
  append(out_, bytes);
  after_flush_ = after;
  state_ = ConnState::kSendingFlight;
}

void ServerConnection::fail(Alert a) {
  failed_ = true;
  hs_.reset();
  dhe_hs_.reset();
  append(out_, encode_alert(a));
  state_ = ConnState::kDraining;
}

void ServerConnection::shed_now() {
  // Admission rejection: the one close path that never created crypto
  // work. Deliberately the same alert a suite mismatch produces — a
  // client cannot distinguish "overloaded" from "unwilling", only the
  // server's counters can (was_shed / AdmissionController::shed()).
  shed_ = true;
  hs_.reset();
  dhe_hs_.reset();
  append(out_, encode_alert(Alert::kHandshakeFailure));
  state_ = ConnState::kDraining;
}

bool ServerConnection::establish_session(const SessionKeys& keys) {
  session_.emplace(keys, /*is_server=*/true);
  return true;
}

void ServerConnection::process() {
  while (state_ == ConnState::kReadingClientHello ||
         state_ == ConnState::kReadingKeyExchange ||
         state_ == ConnState::kReadingFinished ||
         state_ == ConnState::kEstablished) {
    auto f = in_.next();
    if (!f.has_value()) {
      // next() is also where a hostile length prefix is first seen — a
      // poisoned reader means the stream can never re-synchronize.
      if (in_.bad()) fail(Alert::kUnexpectedMessage);
      return;  // park until more bytes arrive
    }
    handle_frame(*f);
  }
}

void ServerConnection::handle_frame(const Frame& f) {
  switch (state_) {
    case ConnState::kReadingClientHello: {
      if (f.type != MsgType::kClientHello) {
        fail(Alert::kUnexpectedMessage);
        return;
      }
      const auto hello = decode_client_hello(f.body);
      if (!hello.has_value()) {
        fail(Alert::kUnexpectedMessage);
        return;
      }
      const bool wants_dhe =
          dhe_group_ != nullptr &&
          std::find(hello->cipher_suites.begin(), hello->cipher_suites.end(),
                    kCipherDheRsaWithSha256) != hello->cipher_suites.end();
      if (wants_dhe) {
        // DHE: the private op is the ServerKeyExchange signature, so the
        // admission decision happens here, before the ephemeral is signed.
        std::size_t depth = 0;
        if (admission_ != nullptr) {
          const auto admitted = admission_->try_admit();
          if (!admitted.has_value()) {
            shed_now();
            return;
          }
          depth = *admitted;
        }
        dhe_hs_.emplace(engine_, *dhe_group_, rng_);
        auto digest = dhe_hs_->on_client_hello_begin(*hello);
        if (!digest.ok()) {
          if (admission_ != nullptr) admission_->on_complete(depth, 0.0);
          fail(digest.alert());
          return;
        }
        pending_op_ = PendingOp{
            PendingOp::Kind::kSign,
            std::vector<std::uint8_t>(digest.value().begin(),
                                      digest.value().end()),
            depth};
        state_ = ConnState::kAwaitSignature;
        return;
      }
      hs_.emplace(engine_, rng_, cache_);
      auto flight = hs_->on_client_hello(*hello);
      if (!flight.ok()) {
        fail(flight.alert());
        return;
      }
      std::vector<std::uint8_t> bytes = encode_server_hello(flight.value().hello);
      if (flight.value().certificate.has_value()) {
        append(bytes, encode_certificate(*flight.value().certificate));
      }
      if (flight.value().finished.has_value()) {
        append(bytes, encode_finished(*flight.value().finished));
      }
      queue(std::move(bytes), flight.value().finished.has_value()
                                  ? ConnState::kReadingFinished  // resumed
                                  : ConnState::kReadingKeyExchange);
      return;
    }

    case ConnState::kReadingKeyExchange: {
      if (dhe_hs_.has_value()) {
        const auto kex = f.type == MsgType::kDheClientKeyExchange
                             ? decode_dhe_client_key_exchange(f.body)
                             : std::nullopt;
        if (!kex.has_value()) {
          fail(Alert::kUnexpectedMessage);
          return;
        }
        dhe_kex_ = *kex;
        state_ = ConnState::kReadingFinished;
        return;
      }
      const auto kex = f.type == MsgType::kClientKeyExchange
                           ? decode_client_key_exchange(f.body)
                           : std::nullopt;
      if (!kex.has_value()) {
        fail(Alert::kUnexpectedMessage);
        return;
      }
      // Transcript absorption + fallback-premaster draw happen NOW; the
      // ciphertext is retained for the PendingOp created once the client
      // Finished (needed by _complete) has arrived too.
      if (auto begun = hs_->on_key_exchange_begin(*kex); !begun.ok()) {
        fail(begun.alert());
        return;
      }
      kex_ct_ = kex->encrypted_premaster;
      state_ = ConnState::kReadingFinished;
      return;
    }

    case ConnState::kReadingFinished: {
      const auto fin = f.type == MsgType::kFinished ? decode_finished(f.body)
                                                    : std::nullopt;
      if (!fin.has_value()) {
        fail(Alert::kUnexpectedMessage);
        return;
      }
      if (dhe_hs_.has_value()) {
        auto server_fin = dhe_hs_->on_key_exchange(dhe_kex_, *fin);
        if (!server_fin.ok()) {
          fail(server_fin.alert());
          return;
        }
        establish_session(dhe_hs_->session_keys());
        queue(encode_finished(server_fin.value()), ConnState::kEstablished);
        return;
      }
      if (hs_->resumed()) {
        auto done = hs_->on_resumed_client_finished(*fin);
        if (!done.ok()) {
          fail(done.alert());
          return;
        }
        establish_session(hs_->session_keys());
        state_ = ConnState::kEstablished;
        return;
      }
      // Full RSA handshake: both messages are in, the decryption is all
      // that remains — the admission decision point.
      std::size_t depth = 0;
      if (admission_ != nullptr) {
        const auto admitted = admission_->try_admit();
        if (!admitted.has_value()) {
          shed_now();
          return;
        }
        depth = *admitted;
      }
      client_fin_ = *fin;
      pending_op_ = PendingOp{PendingOp::Kind::kPrivateOp,
                              std::move(kex_ct_), depth};
      kex_ct_.clear();
      state_ = ConnState::kAwaitPrivateOp;
      return;
    }

    case ConnState::kEstablished: {
      if (f.type == MsgType::kClose) {
        state_ = ConnState::kClosed;
        return;
      }
      if (f.type != MsgType::kAppData) {
        fail(Alert::kUnexpectedMessage);
        return;
      }
      const auto plaintext = session_->receive(f.body);
      if (!plaintext.has_value()) {
        fail(Alert::kDecryptError);
        return;
      }
      // Echo service: seal the same payload back.
      queue(encode_app_data(session_->send(*plaintext, rng_)),
            ConnState::kEstablished);
      return;
    }

    default:
      fail(Alert::kUnexpectedMessage);
      return;
  }
}

void ServerConnection::on_crypto_result(
    std::optional<std::vector<std::uint8_t>> result) {
  if (state_ == ConnState::kAwaitPrivateOp) {
    auto server_fin = hs_->on_key_exchange_complete(result, client_fin_);
    if (!server_fin.ok()) {
      fail(server_fin.alert());
      return;
    }
    establish_session(hs_->session_keys());
    queue(encode_finished(server_fin.value()), ConnState::kEstablished);
    return;
  }
  if (state_ == ConnState::kAwaitSignature) {
    if (!result.has_value()) {
      // A signature cannot fail for protocol reasons, only dispatch
      // failure (service shutdown) — close out like a handshake error.
      fail(Alert::kHandshakeFailure);
      return;
    }
    auto flight = dhe_hs_->on_client_hello_complete(std::move(*result));
    if (!flight.ok()) {
      fail(flight.alert());
      return;
    }
    std::vector<std::uint8_t> bytes = encode_server_hello(flight.value().hello);
    append(bytes, encode_certificate(flight.value().certificate));
    append(bytes, encode_server_key_exchange(flight.value().key_exchange));
    queue(std::move(bytes), ConnState::kReadingKeyExchange);
    return;
  }
  // Result for a connection that already failed/shed: drop it.
}

// --- ScriptedClient ---------------------------------------------------------

ScriptedClient::ScriptedClient(const rsa::Engine& engine,
                               std::uint64_t rng_seed,
                               std::optional<ResumableSession> resume,
                               bool use_dhe)
    : engine_(engine),
      rng_(rng_seed),
      use_dhe_(use_dhe),
      resume_(std::move(resume)) {
  if (use_dhe_) {
    dhe_hs_.emplace(engine_, rng_);
  } else {
    hs_.emplace(engine_, rng_);
  }
}

void ScriptedClient::start() {
  const ClientHello hello =
      use_dhe_ ? dhe_hs_->start() : hs_->start(resume_);
  append(out_, encode_client_hello(hello));
}

void ScriptedClient::on_server_bytes(std::span<const std::uint8_t> bytes) {
  if (done_ || failed_) return;
  in_.feed(bytes);
  process();
}

std::vector<std::uint8_t> ScriptedClient::take_output() {
  return std::exchange(out_, {});
}

void ScriptedClient::fail() { failed_ = true; }

void ScriptedClient::process() {
  while (!done_ && !failed_) {
    auto f = in_.next();
    if (!f.has_value()) {
      if (in_.bad()) fail();
      return;
    }

    if (f->type == MsgType::kAlert) {
      fail();  // includes the server's shed path
      return;
    }

    switch (f->type) {
      case MsgType::kServerHello: {
        auto hello = decode_server_hello(f->body);
        if (!hello.has_value()) return fail();
        held_hello_ = *hello;
        break;  // next frame decides: Certificate (full) or Finished (resumed)
      }
      case MsgType::kCertificate: {
        auto cert = decode_certificate(f->body);
        if (!cert.has_value() || !held_hello_.has_value()) return fail();
        if (use_dhe_) {
          held_cert_ = *cert;  // flight continues with the SKX
          break;
        }
        auto r = hs_->on_server_hello(*held_hello_, *cert);
        if (!r.ok()) return fail();
        append(out_, encode_client_key_exchange(r.value().first));
        append(out_, encode_finished(r.value().second));
        sent_kex_ = true;
        break;
      }
      case MsgType::kServerKeyExchange: {
        auto skx = decode_server_key_exchange(f->body);
        if (!skx.has_value() || !use_dhe_ || !held_hello_.has_value() ||
            !held_cert_.has_value()) {
          return fail();
        }
        auto r = dhe_hs_->on_server_flight(*held_hello_, *held_cert_, *skx);
        if (!r.ok()) return fail();
        append(out_, encode_dhe_client_key_exchange(r.value().first));
        append(out_, encode_finished(r.value().second));
        sent_kex_ = true;
        break;
      }
      case MsgType::kFinished: {
        auto fin = decode_finished(f->body);
        if (!fin.has_value()) return fail();
        if (!use_dhe_ && held_hello_.has_value() && held_hello_->resumed &&
            !sent_kex_) {
          // Abbreviated flow: server Finished precedes the client's.
          auto r = hs_->on_resumed_hello(*held_hello_, *fin);
          if (!r.ok()) return fail();
          append(out_, encode_finished(r.value()));
          session_.emplace(hs_->session_keys(), /*is_server=*/false);
        } else if (sent_kex_) {
          const auto ok = use_dhe_ ? dhe_hs_->on_server_finished(*fin)
                                   : hs_->on_server_finished(*fin);
          if (!ok.ok()) return fail();
          session_.emplace(use_dhe_ ? dhe_hs_->session_keys()
                                    : hs_->session_keys(),
                           /*is_server=*/false);
        } else {
          return fail();
        }
        // Established: prove the record layer with one echo round-trip.
        append(out_, encode_app_data(session_->send(ping_, rng_)));
        sent_ping_ = true;
        break;
      }
      case MsgType::kAppData: {
        if (!sent_ping_ || !session_.has_value()) return fail();
        const auto echoed = session_->receive(f->body);
        if (!echoed.has_value() || *echoed != ping_) {
          return fail();
        }
        append(out_, encode_close());
        done_ = true;
        return;
      }
      default:
        return fail();
    }
  }
}

}  // namespace phissl::ssl::async
