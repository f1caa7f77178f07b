// secure_echo: the complete PhiOpenSSL stack end-to-end — RSA handshake
// (vectorized private-key op on the server), TLS 1.2 key derivation, and
// an encrypted+authenticated echo conversation over the record layer.
//
//   ./secure_echo [key_bits]    (default 1024)
//
// Exits 1 when any check fails: the handshake, the two sides' master
// secrets, an echoed record, or the rejection of a tampered record.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "baseline/systems.hpp"
#include "rsa/key.hpp"
#include "ssl/handshake.hpp"
#include "ssl/record.hpp"
#include "util/random.hpp"

int main(int argc, char** argv) {
  using namespace phissl;

  const std::size_t bits = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 1024;
  std::printf("== secure echo over PhiOpenSSL (RSA-%zu) ==\n", bits);

  const rsa::PrivateKey& key = rsa::test_key(bits);
  const rsa::Engine server_engine =
      baseline::make_engine(baseline::System::kPhiOpenSSL, key);
  const rsa::Engine client_engine(key.pub,
                                  server_engine.options());
  util::Rng rng(1234);

  // --- Handshake ---------------------------------------------------------
  ssl::ServerHandshake server(server_engine, rng);
  ssl::ClientHandshake client(client_engine, rng);

  const auto hello = client.start();
  std::printf("client -> ClientHello (%zu suites)\n", hello.cipher_suites.size());
  const auto flight = server.on_client_hello(hello);
  if (!flight) return 1;
  std::printf("server -> ServerHello + Certificate (suite 0x%04x)\n",
              flight.value().hello.chosen_suite);
  const auto kex = client.on_server_hello(flight.value().hello,
                                          *flight.value().certificate);
  if (!kex) return 1;
  std::printf("client -> ClientKeyExchange (%zu bytes) + Finished\n",
              kex.value().first.encrypted_premaster.size());
  const auto fin = server.on_key_exchange(kex.value().first, kex.value().second);
  if (!fin) {
    std::printf("server alert: %s\n", ssl::to_string(fin.alert()));
    return 1;
  }
  if (!client.on_server_finished(fin.value())) return 1;
  const bool masters_match = client.master() == server.master();
  std::printf("handshake complete; masters match: %s\n",
              masters_match ? "yes" : "NO");
  if (!masters_match) return 1;

  // --- Protected application data ----------------------------------------
  ssl::Session client_session(client.session_keys(), false);
  ssl::Session server_session(server.session_keys(), true);

  for (const std::string msg :
       {"hello over AES-128-CBC + HMAC-SHA256", "second record",
        "the SSL handshake cost was one vectorized RSA op"}) {
    const std::span<const std::uint8_t> bytes{
        reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()};
    const auto wire = client_session.send(bytes, rng);
    const auto at_server = server_session.receive(wire);
    if (!at_server) return 1;
    const auto echoed = server_session.send(*at_server, rng);
    const auto at_client = client_session.receive(echoed);
    if (!at_client) return 1;
    const bool echoed_ok = std::equal(at_client->begin(), at_client->end(),
                                      bytes.begin(), bytes.end());
    std::printf("echoed %3zu bytes through %3zu-byte records: %s\n",
                msg.size(), wire.size(), echoed_ok ? "OK" : "MISMATCH");
    if (!echoed_ok) return 1;
  }

  // Tampered record must be rejected.
  auto wire = client_session.send({{0x01, 0x02}}, rng);
  wire[wire.size() / 2] ^= 0x80;
  const bool tamper_rejected = !server_session.receive(wire).has_value();
  std::printf("tampered record rejected: %s\n",
              tamper_rejected ? "yes" : "NO (!!)");
  return tamper_rejected ? 0 : 1;
}
