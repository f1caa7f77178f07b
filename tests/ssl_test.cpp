// Handshake state-machine tests: full happy path, the abbreviated
// (resumption) path, every failure path (wrong suite, wrong certificate,
// corrupted key exchange, bad Finished, out-of-order messages), the
// session cache, and the handshake driver on the reactor with both
// decrypters.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>

#include "baseline/systems.hpp"
#include "rsa/key.hpp"
#include "rsa/pkcs1.hpp"
#include "ssl/async/reactor.hpp"
#include "ssl/batch_decrypt.hpp"
#include "ssl/driver.hpp"
#include "ssl/handshake.hpp"
#include "ssl/session_cache.hpp"
#include "util/random.hpp"

namespace phissl::ssl {
namespace {

class HandshakeTest : public ::testing::Test {
 protected:
  HandshakeTest()
      : server_engine_(rsa::test_key(1024), rsa::EngineOptions{}),
        client_engine_(rsa::test_key(1024).pub, rsa::EngineOptions{}) {}

  // Runs a full handshake to completion; returns the client's resumable
  // handle. Fails the test on any alert.
  ResumableSession full_handshake(SessionCache* cache = nullptr) {
    ServerHandshake server(server_engine_, rng_, cache);
    ClientHandshake client(client_engine_, rng_);
    const auto flight = server.on_client_hello(client.start());
    EXPECT_TRUE(flight.ok());
    EXPECT_FALSE(flight.value().hello.resumed);
    const auto kex = client.on_server_hello(flight.value().hello,
                                            *flight.value().certificate);
    EXPECT_TRUE(kex.ok());
    const auto fin =
        server.on_key_exchange(kex.value().first, kex.value().second);
    EXPECT_TRUE(fin.ok());
    EXPECT_TRUE(client.on_server_finished(fin.value()).ok());
    EXPECT_EQ(*client.master(), *server.master());
    EXPECT_FALSE(client.resumed());
    EXPECT_FALSE(server.resumed());
    return client.resumable();
  }

  rsa::Engine server_engine_;
  rsa::Engine client_engine_;
  util::Rng rng_{99};
};

TEST_F(HandshakeTest, FullHandshakeEstablishesSharedMaster) {
  full_handshake();
}

TEST_F(HandshakeTest, SessionKeysAgreeAcrossSides) {
  ServerHandshake server(server_engine_, rng_);
  ClientHandshake client(client_engine_, rng_);
  const auto flight = server.on_client_hello(client.start());
  const auto kex = client.on_server_hello(flight.value().hello,
                                          *flight.value().certificate);
  const auto fin = server.on_key_exchange(kex.value().first, kex.value().second);
  ASSERT_TRUE(fin.ok());
  ASSERT_TRUE(client.on_server_finished(fin.value()).ok());
  const SessionKeys sk = server.session_keys();
  const SessionKeys ck = client.session_keys();
  EXPECT_EQ(sk.client_enc_key, ck.client_enc_key);
  EXPECT_EQ(sk.server_mac_key, ck.server_mac_key);
}

TEST_F(HandshakeTest, ResumptionSkipsRsaAndEstablishes) {
  SessionCache cache;
  const ResumableSession ticket = full_handshake(&cache);
  EXPECT_EQ(cache.size(), 1u);

  // Abbreviated handshake with a PUBLIC-ONLY check: no private op runs
  // (decrypt_pkcs1 is never called on this path).
  ServerHandshake server(server_engine_, rng_, &cache);
  ClientHandshake client(client_engine_, rng_);
  const auto flight = server.on_client_hello(client.start(ticket));
  ASSERT_TRUE(flight.ok());
  EXPECT_TRUE(flight.value().hello.resumed);
  EXPECT_FALSE(flight.value().certificate.has_value());
  ASSERT_TRUE(flight.value().finished.has_value());

  const auto client_fin =
      client.on_resumed_hello(flight.value().hello, *flight.value().finished);
  ASSERT_TRUE(client_fin.ok());
  ASSERT_TRUE(server.on_resumed_client_finished(client_fin.value()).ok());

  EXPECT_TRUE(client.resumed());
  EXPECT_TRUE(server.resumed());
  EXPECT_EQ(*client.master(), *server.master());
  EXPECT_EQ(*client.master(), ticket.master);  // reused verbatim
  // Fresh randoms => fresh traffic keys even with the same master.
  const SessionKeys keys = client.session_keys();
  EXPECT_EQ(keys.client_enc_key, server.session_keys().client_enc_key);
}

TEST_F(HandshakeTest, ResumptionCanRepeat) {
  SessionCache cache;
  ResumableSession ticket = full_handshake(&cache);
  for (int i = 0; i < 3; ++i) {
    ServerHandshake server(server_engine_, rng_, &cache);
    ClientHandshake client(client_engine_, rng_);
    const auto flight = server.on_client_hello(client.start(ticket));
    ASSERT_TRUE(flight.ok());
    ASSERT_TRUE(flight.value().hello.resumed) << i;
    const auto cf =
        client.on_resumed_hello(flight.value().hello, *flight.value().finished);
    ASSERT_TRUE(cf.ok()) << i;
    ASSERT_TRUE(server.on_resumed_client_finished(cf.value()).ok()) << i;
    ticket = client.resumable();  // same id+master each time
  }
}

TEST_F(HandshakeTest, UnknownSessionIdFallsBackToFull) {
  SessionCache cache;
  ResumableSession bogus;
  rng_.fill_bytes(bogus.id.data(), bogus.id.size());
  rng_.fill_bytes(bogus.master.data(), bogus.master.size());

  ServerHandshake server(server_engine_, rng_, &cache);
  ClientHandshake client(client_engine_, rng_);
  const auto flight = server.on_client_hello(client.start(bogus));
  ASSERT_TRUE(flight.ok());
  EXPECT_FALSE(flight.value().hello.resumed);  // cache miss -> full
  ASSERT_TRUE(flight.value().certificate.has_value());
  const auto kex = client.on_server_hello(flight.value().hello,
                                          *flight.value().certificate);
  ASSERT_TRUE(kex.ok());
}

TEST_F(HandshakeTest, ResumptionAfterEvictionFallsBackToFull) {
  // A ticket the cache has since evicted is a valid-looking offer the
  // server no longer knows: it must silently run a full handshake (new
  // session id, certificate, RSA key exchange), not fail.
  SessionCache cache(SessionCacheConfig{.capacity = 1, .shards = 1});
  const ResumableSession ticket = full_handshake(&cache);
  full_handshake(&cache);  // second session evicts the first
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_GE(cache.stats().evictions, 1u);

  ServerHandshake server(server_engine_, rng_, &cache);
  ClientHandshake client(client_engine_, rng_);
  const auto flight = server.on_client_hello(client.start(ticket));
  ASSERT_TRUE(flight.ok());
  EXPECT_FALSE(flight.value().hello.resumed);
  ASSERT_TRUE(flight.value().certificate.has_value());
  EXPECT_NE(flight.value().hello.session_id, ticket.id);
  const auto kex = client.on_server_hello(flight.value().hello,
                                          *flight.value().certificate);
  ASSERT_TRUE(kex.ok());
  const auto fin =
      server.on_key_exchange(kex.value().first, kex.value().second);
  ASSERT_TRUE(fin.ok());
  EXPECT_TRUE(client.on_server_finished(fin.value()).ok());
  EXPECT_FALSE(server.resumed());
}

// Decrypts through the service's completion bridge and waits for the
// result on this thread.
std::optional<std::vector<std::uint8_t>> decrypt_via(
    BatchDecryptService& svc, std::span<const std::uint8_t> ciphertext) {
  std::promise<std::optional<std::vector<std::uint8_t>>> result;
  auto done = result.get_future();
  svc.decrypt_premaster_async(
      ciphertext, [&result](std::optional<std::vector<std::uint8_t>> r) {
        result.set_value(std::move(r));
      });
  return done.get();
}

TEST_F(HandshakeTest, BatchedDecrypterCompletesFullHandshake) {
  for (const rsa::Backend b : rsa::kAllBackends) {
    if (!rsa::has_batch_form(b)) continue;
    SCOPED_TRACE(rsa::to_string(b));
    BatchDecryptService svc(
        rsa::test_key(1024),
        BatchDecryptConfig{.dispatch_threads = 1, .backend = b});
    ServerHandshake server(server_engine_, rng_);
    ClientHandshake client(client_engine_, rng_);
    const auto flight = server.on_client_hello(client.start());
    ASSERT_TRUE(flight.ok());
    const auto kex = client.on_server_hello(flight.value().hello,
                                            *flight.value().certificate);
    ASSERT_TRUE(kex.ok());
    ASSERT_TRUE(server.on_key_exchange_begin(kex.value().first).ok());
    const auto fin = server.on_key_exchange_complete(
        decrypt_via(svc, kex.value().first.encrypted_premaster),
        kex.value().second);
    ASSERT_TRUE(fin.ok());
    EXPECT_TRUE(client.on_server_finished(fin.value()).ok());
    EXPECT_EQ(*client.master(), *server.master());
    // The decryption went through the service: in a batch lane or
    // single-stream.
    const auto st = svc.stats();
    EXPECT_EQ(st.requests, 1u);
    EXPECT_EQ(st.lanes_signed + st.single_ops, st.requests);
    EXPECT_EQ(st.padded_lanes, st.batches * 16 - st.lanes_signed);
  }
}

TEST_F(HandshakeTest, BatchedDecrypterRejectsMalformedUniformly) {
  BatchDecryptService svc(rsa::test_key(1024),
                          BatchDecryptConfig{.dispatch_threads = 1});
  const std::size_t k = server_engine_.pub().byte_size();
  // Wrong size, value >= n, and bad padding (the encoding of 1) all
  // surface as nullopt.
  std::vector<std::uint8_t> bad_padding(k - 1, 0);
  bad_padding.push_back(1);
  const std::vector<std::vector<std::uint8_t>> malformed = {
      std::vector<std::uint8_t>(k - 1, 0),
      std::vector<std::uint8_t>(k, 0xff),
      bad_padding,
  };
  for (const auto& ct : malformed) {
    EXPECT_FALSE(decrypt_via(svc, ct).has_value());
  }
  // And through the handshake they are all kBadFinished.
  for (const auto& ct : malformed) {
    ServerHandshake server(server_engine_, rng_);
    ClientHandshake client(client_engine_, rng_);
    const auto flight = server.on_client_hello(client.start());
    auto kex = client.on_server_hello(flight.value().hello,
                                      *flight.value().certificate);
    ASSERT_TRUE(kex.ok());
    ClientKeyExchange mauled = kex.value().first;
    mauled.encrypted_premaster = ct;
    ASSERT_TRUE(server.on_key_exchange_begin(mauled).ok());
    const auto fin = server.on_key_exchange_complete(
        decrypt_via(svc, mauled.encrypted_premaster), kex.value().second);
    ASSERT_FALSE(fin.ok());
    EXPECT_EQ(fin.alert(), Alert::kBadFinished);
  }
}

TEST_F(HandshakeTest, ResumptionWithWrongMasterRejected) {
  SessionCache cache;
  ResumableSession ticket = full_handshake(&cache);
  ticket.master[0] ^= 1;  // client remembers a wrong master

  ServerHandshake server(server_engine_, rng_, &cache);
  ClientHandshake client(client_engine_, rng_);
  const auto flight = server.on_client_hello(client.start(ticket));
  ASSERT_TRUE(flight.ok());
  ASSERT_TRUE(flight.value().hello.resumed);
  // The server's Finished is keyed by the true master: client must reject.
  const auto cf =
      client.on_resumed_hello(flight.value().hello, *flight.value().finished);
  ASSERT_FALSE(cf.ok());
  EXPECT_EQ(cf.alert(), Alert::kBadFinished);
}

TEST_F(HandshakeTest, RejectsUnknownCipherSuites) {
  ServerHandshake server(server_engine_, rng_);
  ClientHello ch;
  ch.cipher_suites = {0x0000, 0x1301};  // no RSA suite offered
  const auto flight = server.on_client_hello(ch);
  ASSERT_FALSE(flight.ok());
  EXPECT_EQ(flight.alert(), Alert::kHandshakeFailure);
}

TEST_F(HandshakeTest, ClientRejectsWrongCertificate) {
  ServerHandshake server(server_engine_, rng_);
  ClientHandshake client(client_engine_, rng_);
  const auto flight = server.on_client_hello(client.start());
  ASSERT_TRUE(flight.ok());
  Certificate bad_cert;
  bad_cert.server_key = rsa::test_key(2048).pub;  // different key
  const auto kex = client.on_server_hello(flight.value().hello, bad_cert);
  ASSERT_FALSE(kex.ok());
  EXPECT_EQ(kex.alert(), Alert::kHandshakeFailure);
}

TEST_F(HandshakeTest, ServerRejectsCorruptedKeyExchange) {
  ServerHandshake server(server_engine_, rng_);
  ClientHandshake client(client_engine_, rng_);
  const auto flight = server.on_client_hello(client.start());
  auto kex = client.on_server_hello(flight.value().hello,
                                    *flight.value().certificate);
  ASSERT_TRUE(kex.ok());
  auto bad = kex.value().first;
  bad.encrypted_premaster[10] ^= 0x40;
  const auto fin = server.on_key_exchange(bad, kex.value().second);
  ASSERT_FALSE(fin.ok());
  EXPECT_TRUE(fin.alert() == Alert::kDecryptError ||
              fin.alert() == Alert::kBadFinished);
}

TEST_F(HandshakeTest, BleichenbacherUniformAlert) {
  // RFC 5246 §7.4.7.1 regression: every way a ClientKeyExchange can be
  // wrong — non-conforming PKCS#1 padding, conforming padding around a
  // wrong-length premaster, conforming padding around a wrong-but-right-
  // length premaster — must fail identically, at the Finished check,
  // with kBadFinished. A distinct alert for the padding cases is a
  // Bleichenbacher decryption oracle.
  const std::size_t k = server_engine_.pub().byte_size();

  // (a) Non-conforming padding: the k-byte encoding of 1 decrypts to
  // em = 00..01, which does not start 00 02.
  std::vector<std::uint8_t> bad_padding(k, 0);
  bad_padding.back() = 1;
  // (b) Conforming padding, wrong premaster length (10 != 48 bytes).
  std::vector<std::uint8_t> short_premaster(10, 0xab);
  // (c) Conforming padding, right length, wrong bytes.
  std::vector<std::uint8_t> wrong_premaster(kPremasterSize, 0xcd);

  const std::vector<std::vector<std::uint8_t>> ciphertexts = {
      bad_padding,
      rsa::encrypt_pkcs1(client_engine_, short_premaster, rng_),
      rsa::encrypt_pkcs1(client_engine_, wrong_premaster, rng_),
  };

  for (std::size_t i = 0; i < ciphertexts.size(); ++i) {
    ServerHandshake server(server_engine_, rng_);
    ClientHandshake client(client_engine_, rng_);
    const auto flight = server.on_client_hello(client.start());
    ASSERT_TRUE(flight.ok());
    auto kex = client.on_server_hello(flight.value().hello,
                                      *flight.value().certificate);
    ASSERT_TRUE(kex.ok());
    ClientKeyExchange mauled = kex.value().first;
    mauled.encrypted_premaster = ciphertexts[i];
    const auto fin = server.on_key_exchange(mauled, kex.value().second);
    ASSERT_FALSE(fin.ok()) << "case " << i;
    // Exactly kBadFinished — never kDecryptError — for every case.
    EXPECT_EQ(fin.alert(), Alert::kBadFinished) << "case " << i;
  }
}

TEST_F(HandshakeTest, ServerRejectsBadClientFinished) {
  ServerHandshake server(server_engine_, rng_);
  ClientHandshake client(client_engine_, rng_);
  const auto flight = server.on_client_hello(client.start());
  auto kex = client.on_server_hello(flight.value().hello,
                                    *flight.value().certificate);
  ASSERT_TRUE(kex.ok());
  Finished bad_fin = kex.value().second;
  bad_fin.verify_data[0] ^= 1;
  const auto fin = server.on_key_exchange(kex.value().first, bad_fin);
  ASSERT_FALSE(fin.ok());
  EXPECT_EQ(fin.alert(), Alert::kBadFinished);
}

TEST_F(HandshakeTest, ClientRejectsBadServerFinished) {
  ServerHandshake server(server_engine_, rng_);
  ClientHandshake client(client_engine_, rng_);
  const auto flight = server.on_client_hello(client.start());
  const auto kex = client.on_server_hello(flight.value().hello,
                                          *flight.value().certificate);
  auto fin = server.on_key_exchange(kex.value().first, kex.value().second);
  ASSERT_TRUE(fin.ok());
  Finished bad = fin.value();
  bad.verify_data[kVerifyDataSize - 1] ^= 0x80;
  const auto done = client.on_server_finished(bad);
  ASSERT_FALSE(done.ok());
  EXPECT_EQ(done.alert(), Alert::kBadFinished);
}

TEST_F(HandshakeTest, OutOfOrderMessagesRejected) {
  ServerHandshake server(server_engine_, rng_);
  ClientHandshake client(client_engine_, rng_);
  // KeyExchange before ClientHello.
  const auto early = server.on_key_exchange(ClientKeyExchange{}, Finished{});
  ASSERT_FALSE(early.ok());
  EXPECT_EQ(early.alert(), Alert::kUnexpectedMessage);
  // Resumed-finished on the full path.
  EXPECT_FALSE(server.on_resumed_client_finished(Finished{}).ok());
  // Hello twice.
  const auto flight = server.on_client_hello(client.start());
  ASSERT_TRUE(flight.ok());
  const auto again = server.on_client_hello(client.start());
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.alert(), Alert::kUnexpectedMessage);
  // Client: server hello before start is rejected.
  ClientHandshake fresh(client_engine_, rng_);
  const auto bad = fresh.on_server_hello(flight.value().hello,
                                         *flight.value().certificate);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.alert(), Alert::kUnexpectedMessage);
}

TEST_F(HandshakeTest, SessionsHaveDistinctMasters) {
  MasterSecret first{};
  for (int i = 0; i < 2; ++i) {
    ServerHandshake server(server_engine_, rng_);
    ClientHandshake client(client_engine_, rng_);
    const auto flight = server.on_client_hello(client.start());
    const auto kex = client.on_server_hello(flight.value().hello,
                                            *flight.value().certificate);
    const auto fin =
        server.on_key_exchange(kex.value().first, kex.value().second);
    ASSERT_TRUE(fin.ok());
    if (i == 0) {
      first = *server.master();
    } else {
      EXPECT_NE(*server.master(), first);
    }
  }
}

TEST(SessionCacheTest, PutGetEvict) {
  // Single shard so all three ids compete for the same capacity.
  SessionCache cache(SessionCacheConfig{.capacity = 2, .shards = 1});
  SessionId a{}, b{}, c{};
  a[0] = 1;
  b[0] = 2;
  c[0] = 3;
  MasterSecret m{};
  m[0] = 9;
  cache.put(a, m);
  cache.put(b, m);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.get(a).has_value());  // touches a: b is now the LRU
  cache.put(c, m);                        // evicts the LRU (b)
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.get(a).has_value());
  EXPECT_FALSE(cache.get(b).has_value());
  EXPECT_TRUE(cache.get(c).has_value());
  // Re-put of an existing id is an update, not an insert.
  MasterSecret m2{};
  m2[0] = 7;
  cache.put(a, m2);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ((*cache.get(a))[0], 7);
}

TEST(SessionCacheTest, LruOrderFollowsRecency) {
  SessionCache cache(SessionCacheConfig{.capacity = 3, .shards = 1});
  MasterSecret m{};
  SessionId ids[4] = {};
  for (int i = 0; i < 4; ++i) ids[i][0] = static_cast<std::uint8_t>(i + 1);
  cache.put(ids[0], m);
  cache.put(ids[1], m);
  cache.put(ids[2], m);
  // Recency now [2, 1, 0]; re-putting 0 promotes it -> [0, 2, 1].
  cache.put(ids[0], m);
  cache.put(ids[3], m);  // evicts 1
  EXPECT_TRUE(cache.get(ids[0]).has_value());
  EXPECT_FALSE(cache.get(ids[1]).has_value());
  EXPECT_TRUE(cache.get(ids[2]).has_value());
  EXPECT_TRUE(cache.get(ids[3]).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(SessionCacheTest, ShardsPartitionCapacityAndCountStats) {
  // 4 shards x 2 entries. Shard selection folds the LAST id bytes, so
  // vary the final byte to spread ids and a middle byte to vary keys.
  SessionCache cache(SessionCacheConfig{.capacity = 8, .shards = 4});
  EXPECT_EQ(cache.shard_count(), 4u);
  MasterSecret m{};
  // Three ids landing in the SAME shard (identical last bytes): the
  // shard's 2-entry budget must evict, even though the cache is far
  // from its total capacity.
  SessionId s1{}, s2{}, s3{};
  s1[0] = 1;
  s2[0] = 2;
  s3[0] = 3;
  cache.put(s1, m);
  cache.put(s2, m);
  cache.put(s3, m);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.get(s1).has_value());  // the shard's LRU was s1
  const SessionCacheStats st = cache.stats();
  EXPECT_EQ(st.puts, 3u);
  EXPECT_EQ(st.misses, 1u);
  // Ids differing in the last byte scatter across shards: all four fit
  // even though one shard only holds two.
  SessionId spread[4] = {};
  for (int i = 0; i < 4; ++i) {
    spread[i][kSessionIdSize - 1] = static_cast<std::uint8_t>(i);
  }
  for (const auto& id : spread) cache.put(id, m);
  for (const auto& id : spread) EXPECT_TRUE(cache.get(id).has_value());
}

TEST(SessionCacheTest, TtlExpiresEntriesLazily) {
  SessionCache cache(SessionCacheConfig{
      .capacity = 4, .shards = 1, .ttl = std::chrono::milliseconds(1)});
  SessionId id{};
  id[0] = 1;
  MasterSecret m{};
  m[0] = 5;
  cache.put(id, m);
  EXPECT_EQ(cache.size(), 1u);  // lazy: still counted until a get() finds it
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(cache.get(id).has_value());
  EXPECT_EQ(cache.size(), 0u);  // collected by the failed lookup
  const SessionCacheStats st = cache.stats();
  EXPECT_EQ(st.expirations, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, 0u);
  // A fresh put is alive again.
  cache.put(id, m);
  EXPECT_TRUE(cache.get(id).has_value());
}

TEST(SessionCacheTest, FullPutEvictsExpiredEntriesBeforeLiveOnes) {
  // Fill one shard, let half the entries TTL-lapse, then keep inserting:
  // every insert into the full shard must collect a TTL-dead entry (an
  // expiration) instead of displacing a live session (an eviction). A
  // capacity-displacement policy that ignores TTL would evict live
  // sessions while dead ones rot mid-list.
  SessionCache cache(SessionCacheConfig{
      .capacity = 8, .shards = 1, .ttl = std::chrono::milliseconds(200)});
  MasterSecret m{};
  SessionId ids[12] = {};
  for (int i = 0; i < 12; ++i) ids[i][0] = static_cast<std::uint8_t>(i + 1);
  for (int i = 0; i < 4; ++i) cache.put(ids[i], m);  // these will expire
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  for (int i = 4; i < 8; ++i) cache.put(ids[i], m);  // shard full: 4 dead + 4 live
  for (int i = 8; i < 12; ++i) cache.put(ids[i], m);  // 4 inserts into a full shard
  const SessionCacheStats st = cache.stats();
  EXPECT_EQ(st.expirations, 4u);  // the dead entries were the victims...
  EXPECT_EQ(st.evictions, 0u);    // ...and no live session was displaced
  // Every live session is still resumable.
  for (int i = 4; i < 12; ++i) {
    EXPECT_TRUE(cache.get(ids[i]).has_value()) << "id " << i;
  }
  EXPECT_EQ(cache.size(), 8u);
}

TEST(AlertNames, AllDistinct) {
  EXPECT_STREQ(to_string(Alert::kHandshakeFailure), "handshake_failure");
  EXPECT_STREQ(to_string(Alert::kDecryptError), "decrypt_error");
  EXPECT_STREQ(to_string(Alert::kBadFinished), "bad_finished");
  EXPECT_STREQ(to_string(Alert::kUnexpectedMessage), "unexpected_message");
}

// The driver runs on the reactor; every case below runs with both
// decrypters: the batch service and inline scalar resolution.
constexpr bool kDecrypters[] = {false, true};

const char* decrypter_name(bool batched) {
  return batched ? "batched" : "scalar";
}

// The fewest resumptions a run of n connections at ratio 1.0 with one
// open connection per worker may show: each identity's first visit
// (identity_pool_for(n) of them) cannot resume, and a later visit misses
// only while the identity's previous connection is still open on another
// worker — two per worker leaves room for a preempted worker.
std::size_t min_resumed(std::size_t n, std::size_t workers) {
  return n - async::identity_pool_for(n) - 2 * workers;
}

TEST(Driver, CompletesAllHandshakes) {
  const rsa::Engine engine(rsa::test_key(512),
                           baseline::options_for(baseline::System::kPhiOpenSSL));
  for (const bool batched : kDecrypters) {
    SCOPED_TRACE(decrypter_name(batched));
    DriverConfig cfg;
    cfg.num_handshakes = 16;
    cfg.batch_private_ops = batched;
    const DriverReport r = run_handshakes(engine, cfg);
    EXPECT_EQ(r.completed, 16u);
    EXPECT_EQ(r.failed, 0u);
    EXPECT_EQ(r.resumed, 0u);  // ratio defaults to 0
    EXPECT_GT(r.handshakes_per_s, 0.0);
    EXPECT_EQ(r.latency_us.count, 16u);
    EXPECT_EQ(r.service_requests, batched ? 16u : 0u);
  }
}

TEST(Driver, MultithreadedCompletesAll) {
  const rsa::Engine engine(rsa::test_key(512),
                           baseline::options_for(baseline::System::kPhiOpenSSL));
  for (const bool batched : kDecrypters) {
    SCOPED_TRACE(decrypter_name(batched));
    DriverConfig cfg;
    cfg.num_handshakes = 32;
    cfg.event_workers = 4;
    cfg.max_open_connections = 4;  // one connection per worker at a time
    cfg.batch_private_ops = batched;
    const DriverReport r = run_handshakes(engine, cfg);
    EXPECT_EQ(r.completed, 32u);
    EXPECT_EQ(r.failed, 0u);
  }
}

TEST(Driver, BatchedPrivateOpsCompleteAll) {
  const rsa::Engine engine(rsa::test_key(512),
                           baseline::options_for(baseline::System::kPhiOpenSSL));
  DriverConfig cfg;
  cfg.num_handshakes = 16;
  cfg.event_workers = 4;
  cfg.batch_private_ops = true;
  cfg.batch_linger = std::chrono::microseconds(200);
  const DriverReport r = run_handshakes(engine, cfg);
  EXPECT_EQ(r.completed, 16u);
  EXPECT_EQ(r.failed, 0u);
  // The decryptions went through the service, each in a batch lane or
  // single-stream.
  EXPECT_EQ(r.service_requests, 16u);
  EXPECT_EQ(r.lanes_signed + r.single_ops, r.service_requests);
  EXPECT_EQ(r.padded_lanes, r.batches * 16 - r.lanes_signed);
  EXPECT_EQ(r.latency_us.count, 16u);
  // All full handshakes: 16 cache inserts, no hit.
  EXPECT_EQ(r.cache_hits, 0u);
}

TEST(Driver, ReportsCacheCounters) {
  const rsa::Engine engine(rsa::test_key(512),
                           baseline::options_for(baseline::System::kPhiOpenSSL));
  for (const bool batched : kDecrypters) {
    SCOPED_TRACE(decrypter_name(batched));
    DriverConfig cfg;
    cfg.num_handshakes = 24;
    cfg.event_workers = 2;
    cfg.max_open_connections = 2;
    cfg.resumption_ratio = 1.0;
    cfg.batch_private_ops = batched;
    const DriverReport r = run_handshakes(engine, cfg);
    EXPECT_EQ(r.completed, 24u);
    // Every resumed handshake is a cache hit.
    EXPECT_EQ(r.cache_hits, r.resumed);
    EXPECT_GE(r.resumed, min_resumed(24, cfg.event_workers));
  }
}

TEST(Driver, ResumptionRatioRespected) {
  const rsa::Engine engine(rsa::test_key(512),
                           baseline::options_for(baseline::System::kPhiOpenSSL));
  for (const bool batched : kDecrypters) {
    SCOPED_TRACE(decrypter_name(batched));
    DriverConfig cfg;
    cfg.num_handshakes = 60;
    cfg.event_workers = 2;
    cfg.max_open_connections = 2;
    cfg.resumption_ratio = 1.0;  // resume whenever possible
    cfg.batch_private_ops = batched;
    const DriverReport r = run_handshakes(engine, cfg);
    EXPECT_EQ(r.completed, 60u);
    EXPECT_EQ(r.failed, 0u);
    EXPECT_GE(r.resumed, min_resumed(60, cfg.event_workers));
    EXPECT_LT(r.resumed, 60u);

    cfg.resumption_ratio = 2.0;
    EXPECT_THROW(run_handshakes(engine, cfg), std::invalid_argument);
  }
}

TEST(Driver, WorksForAllBaselineSystems) {
  for (const auto s : baseline::all_systems()) {
    const rsa::Engine engine =
        baseline::make_engine(s, rsa::test_key(512));
    for (const bool batched : kDecrypters) {
      DriverConfig cfg;
      cfg.num_handshakes = 4;
      cfg.batch_private_ops = batched;
      const DriverReport r = run_handshakes(engine, cfg);
      EXPECT_EQ(r.completed, 4u)
          << baseline::name(s) << " " << decrypter_name(batched);
    }
  }
}

TEST(Driver, RequiresPrivateKey) {
  const rsa::Engine pub_only(rsa::test_key(512).pub, rsa::EngineOptions{});
  EXPECT_THROW(run_handshakes(pub_only, DriverConfig{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace phissl::ssl
