// Byte-stream framing for the event-driven TLS terminator.
//
// The blocking handshake API (ssl/handshake.hpp) passes messages between
// client and server as in-memory structs — fine when one caller owns both
// ends of a handshake, useless for an event loop that must resume a
// parked connection from whatever bytes have arrived so far. This module
// gives every message a self-delimiting wire shape:
//
//   [type: 1 byte][length: 3 bytes big-endian][body: `length` bytes]
//
// so a connection state machine can consume input byte-at-a-time,
// park mid-message, and pick up exactly where it left off. Encodings are
// injective (variable-length fields carry explicit length prefixes) and
// deliberately simple — this is a framing layer for the terminator's
// state machines, not a TLS 1.2 record-layer reproduction.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ssl/dhe_handshake.hpp"
#include "ssl/messages.hpp"

namespace phissl::ssl::async {

/// Frame type tags. Values are wire format — append only.
enum class MsgType : std::uint8_t {
  kClientHello = 1,
  kServerHello = 2,
  kCertificate = 3,
  kClientKeyExchange = 4,     // RSA key transport: encrypted premaster
  kServerKeyExchange = 5,     // DHE: signed ephemeral parameters
  kDheClientKeyExchange = 6,  // DHE: client public value
  kFinished = 7,
  kAlert = 8,
  kAppData = 9,  // one sealed record-layer record
  kClose = 10,   // orderly shutdown, empty body
};

/// One decoded frame: the tag plus its body bytes (still encoded).
struct Frame {
  MsgType type{};
  std::vector<std::uint8_t> body;
};

/// Frames larger than this are a protocol violation (the largest honest
/// frame is an AppData record of a short echo payload, well under 1 KiB;
/// the bound exists so a hostile length prefix cannot balloon a
/// connection's buffer).
constexpr std::size_t kMaxFrameBody = std::size_t{1} << 20;

/// Prepends the [type][len:3] header to `body`. Throws
/// std::invalid_argument if body exceeds kMaxFrameBody.
std::vector<std::uint8_t> frame(MsgType type,
                                std::span<const std::uint8_t> body);

// Per-message encoders: struct -> framed bytes.
std::vector<std::uint8_t> encode_client_hello(const ClientHello& m);
std::vector<std::uint8_t> encode_server_hello(const ServerHello& m);
std::vector<std::uint8_t> encode_certificate(const Certificate& m);
std::vector<std::uint8_t> encode_client_key_exchange(
    const ClientKeyExchange& m);
std::vector<std::uint8_t> encode_server_key_exchange(
    const ServerKeyExchange& m);
std::vector<std::uint8_t> encode_dhe_client_key_exchange(
    const DheClientKeyExchange& m);
std::vector<std::uint8_t> encode_finished(const Finished& m);
std::vector<std::uint8_t> encode_alert(Alert a);
std::vector<std::uint8_t> encode_app_data(std::span<const std::uint8_t> rec);
std::vector<std::uint8_t> encode_close();

// Per-message decoders: frame body -> struct; nullopt on any malformed
// body (bad length, trailing bytes, out-of-range field).
std::optional<ClientHello> decode_client_hello(
    std::span<const std::uint8_t> body);
std::optional<ServerHello> decode_server_hello(
    std::span<const std::uint8_t> body);
std::optional<Certificate> decode_certificate(
    std::span<const std::uint8_t> body);
std::optional<ClientKeyExchange> decode_client_key_exchange(
    std::span<const std::uint8_t> body);
std::optional<ServerKeyExchange> decode_server_key_exchange(
    std::span<const std::uint8_t> body);
std::optional<DheClientKeyExchange> decode_dhe_client_key_exchange(
    std::span<const std::uint8_t> body);
std::optional<Finished> decode_finished(std::span<const std::uint8_t> body);
std::optional<Alert> decode_alert(std::span<const std::uint8_t> body);

/// Incremental frame accumulator: feed() arbitrary byte chunks in, pull
/// complete frames out with next(). Owns a single contiguous buffer;
/// partial frames persist across feed() calls, which is what lets a
/// connection state machine park on a half-received message.
class FrameReader {
 public:
  /// Appends incoming bytes. Cheap; no parsing happens here.
  void feed(std::span<const std::uint8_t> bytes);

  /// Pops the next complete frame, or nullopt if the buffer holds only a
  /// partial one. After a malformed header (body length > kMaxFrameBody)
  /// the reader is poisoned: next() returns nullopt, bad() is true, the
  /// backlog buffer is released (buffered() == 0) and later feed()s are
  /// dropped — the connection should alert and close.
  std::optional<Frame> next();

  /// True once a hostile/corrupt length prefix was seen.
  [[nodiscard]] bool bad() const { return bad_; }

  /// Bytes currently buffered (partial frame + unparsed backlog).
  [[nodiscard]] std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  // consumed prefix, compacted opportunistically
  bool bad_ = false;
};

}  // namespace phissl::ssl::async
