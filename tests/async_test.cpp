// Event-driven terminator tests: wire codec round-trips, the
// ServerConnection state machine under scripted byte streams (partial
// reads, partial writes, crypto-future resolution ordering, shedding
// before the private op, both suites, resumption), the Reactor behind
// run_handshakes with both decrypters, config validation, and a 2-worker
// connection-churn stress kept free of wall-clock assertions so it runs
// under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "dh/dh.hpp"
#include "rsa/key.hpp"
#include "ssl/async/admission.hpp"
#include "ssl/async/connection.hpp"
#include "ssl/async/reactor.hpp"
#include "ssl/async/transport.hpp"
#include "ssl/async/wire.hpp"
#include "ssl/driver.hpp"
#include "ssl/session_cache.hpp"
#include "util/random.hpp"

namespace phissl::ssl::async {
namespace {

using bigint::BigInt;

// --- Wire codec -------------------------------------------------------------

TEST(WireCodec, ClientHelloRoundTrips) {
  ClientHello m;
  for (std::size_t i = 0; i < m.client_random.size(); ++i) {
    m.client_random[i] = static_cast<std::uint8_t>(i);
  }
  m.cipher_suites = {kCipherRsaWithSha256, kCipherDheRsaWithSha256};
  m.session_id.emplace();
  m.session_id->fill(0xab);

  const auto bytes = encode_client_hello(m);
  FrameReader r;
  r.feed(bytes);
  const auto f = r.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, MsgType::kClientHello);
  const auto back = decode_client_hello(f->body);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->client_random, m.client_random);
  EXPECT_EQ(back->cipher_suites, m.cipher_suites);
  EXPECT_EQ(back->session_id, m.session_id);
}

TEST(WireCodec, ServerKeyExchangeRoundTrips) {
  ServerKeyExchange m;
  m.dh_p = BigInt::from_u64(0xfffffffffffffffdULL);
  m.dh_g = BigInt::from_u64(2);
  m.dh_ys = BigInt::from_u64(0x123456789abcdefULL);
  m.signature = {1, 2, 3, 4, 5};
  const auto bytes = encode_server_key_exchange(m);
  FrameReader r;
  r.feed(bytes);
  const auto f = r.next();
  ASSERT_TRUE(f.has_value());
  const auto back = decode_server_key_exchange(f->body);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->dh_p, m.dh_p);
  EXPECT_EQ(back->dh_g, m.dh_g);
  EXPECT_EQ(back->dh_ys, m.dh_ys);
  EXPECT_EQ(back->signature, m.signature);
}

TEST(WireCodec, PartialFeedsAccumulate) {
  ServerHello m;
  m.server_random.fill(7);
  m.chosen_suite = kCipherRsaWithSha256;
  m.session_id.fill(9);
  const auto bytes = encode_server_hello(m);

  FrameReader r;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    EXPECT_FALSE(r.next().has_value()) << "frame complete too early at " << i;
    r.feed({&bytes[i], 1});
  }
  const auto f = r.next();
  ASSERT_TRUE(f.has_value());
  const auto back = decode_server_hello(f->body);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->chosen_suite, m.chosen_suite);
  EXPECT_FALSE(back->resumed);
}

TEST(WireCodec, TrailingBytesRejected) {
  Finished fin;
  auto bytes = encode_finished(fin);
  // Grow the body without fixing the length: decoder must reject.
  std::vector<std::uint8_t> body(bytes.begin() + 4, bytes.end());
  body.push_back(0);
  EXPECT_FALSE(decode_finished(body).has_value());
}

TEST(WireCodec, OversizedLengthPoisonsReader) {
  FrameReader r;
  const std::uint8_t evil[4] = {1, 0xff, 0xff, 0xff};  // 16 MiB body
  r.feed(evil);
  EXPECT_FALSE(r.next().has_value());
  EXPECT_TRUE(r.bad());
  const std::uint8_t more[1] = {0};
  r.feed(more);  // ignored once poisoned
  EXPECT_FALSE(r.next().has_value());
}

TEST(WireCodec, MaxFrameBodyBoundaryIsExact) {
  // Exact threshold and both neighbors. A header claiming kMaxFrameBody
  // is legal (the frame just isn't complete until the body arrives);
  // kMaxFrameBody + 1 poisons; kMaxFrameBody - 1 parses end to end.
  auto header_for = [](std::size_t len) {
    return std::vector<std::uint8_t>{
        static_cast<std::uint8_t>(MsgType::kAppData),
        static_cast<std::uint8_t>(len >> 16),
        static_cast<std::uint8_t>(len >> 8), static_cast<std::uint8_t>(len)};
  };

  {  // len == kMaxFrameBody: accepted, completes once the body lands.
    FrameReader r;
    r.feed(header_for(kMaxFrameBody));
    EXPECT_FALSE(r.next().has_value());
    EXPECT_FALSE(r.bad());
    r.feed(std::vector<std::uint8_t>(kMaxFrameBody, 0x2a));
    const auto f = r.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->body.size(), kMaxFrameBody);
    EXPECT_FALSE(r.bad());
  }
  {  // len == kMaxFrameBody + 1: poisoned on the header alone.
    FrameReader r;
    r.feed(header_for(kMaxFrameBody + 1));
    EXPECT_FALSE(r.next().has_value());
    EXPECT_TRUE(r.bad());
  }
  {  // len == kMaxFrameBody - 1: a plain big frame.
    FrameReader r;
    r.feed(header_for(kMaxFrameBody - 1));
    r.feed(std::vector<std::uint8_t>(kMaxFrameBody - 1, 0x2a));
    const auto f = r.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->body.size(), kMaxFrameBody - 1);
    EXPECT_FALSE(r.bad());
  }
}

TEST(WireCodec, PoisonReleasesBufferedBytes) {
  // A hostile length prefix must not pin the backlog: after poison the
  // buffer is released (buffered() == 0) and later feeds are dropped, so
  // one bad header can't hold kMaxFrameBody of heap until teardown.
  FrameReader p;
  p.feed(std::vector<std::uint8_t>{1, 0xff, 0xff, 0xff});  // 16 MiB claim
  p.feed(std::vector<std::uint8_t>(8192, 0xab));  // backlog behind it
  EXPECT_GT(p.buffered(), 0u);
  EXPECT_FALSE(p.next().has_value());
  EXPECT_TRUE(p.bad());
  EXPECT_EQ(p.buffered(), 0u);
  p.feed(std::vector<std::uint8_t>(1024, 0xcd));
  EXPECT_EQ(p.buffered(), 0u);  // poisoned reader accepts nothing
  EXPECT_FALSE(p.next().has_value());
}

TEST(WireCodec, BackToBackFramesBothDecode) {
  auto a = encode_close();
  const auto b = encode_alert(Alert::kBadFinished);
  a.insert(a.end(), b.begin(), b.end());
  FrameReader r;
  r.feed(a);
  auto f1 = r.next();
  ASSERT_TRUE(f1.has_value());
  EXPECT_EQ(f1->type, MsgType::kClose);
  auto f2 = r.next();
  ASSERT_TRUE(f2.has_value());
  ASSERT_EQ(f2->type, MsgType::kAlert);
  EXPECT_EQ(decode_alert(f2->body), Alert::kBadFinished);
}

// --- Connection state machine ----------------------------------------------

class AsyncConnectionTest : public ::testing::Test {
 protected:
  AsyncConnectionTest()
      : server_engine_(rsa::test_key(1024), rsa::EngineOptions{}),
        client_engine_(rsa::test_key(1024).pub, rsa::EngineOptions{}) {}

  // Shuttles bytes between client and server until the client settles,
  // resolving crypto ops inline. chunk = max bytes moved per hop in each
  // direction (0 = unlimited) — small values exercise partial I/O.
  void drive(ServerConnection& server, ScriptedClient& client,
             std::size_t chunk = 0, int max_iters = 100000) {
    client.start();
    for (int i = 0; i < max_iters; ++i) {
      bool progressed = false;
      auto c2s = client.take_output();
      // Feed client->server bytes in `chunk`-sized slices.
      for (std::size_t off = 0; off < c2s.size();) {
        const std::size_t n = chunk == 0 ? c2s.size() - off
                                         : std::min(chunk, c2s.size() - off);
        server.on_input({c2s.data() + off, n});
        off += n;
        progressed = true;
      }
      if (auto op = server.take_pending_op(); op.has_value()) {
        server.on_crypto_result(resolve_pending_op(server_engine_, *op, rng_));
        progressed = true;
      }
      auto s2c = server.take_output(chunk);
      if (!s2c.empty()) {
        client.on_server_bytes(s2c);
        progressed = true;
      }
      if ((client.done() || client.failed()) &&
          client.output_pending() == 0 && server.output_pending() == 0) {
        return;
      }
      if (!progressed && chunk == 0) FAIL() << "connection stalled";
    }
    FAIL() << "connection did not settle";
  }

  rsa::Engine server_engine_;
  rsa::Engine client_engine_;
  util::Rng rng_{5};
};

TEST_F(AsyncConnectionTest, FullHandshakeCompletes) {
  ServerConnection server(server_engine_, 1, nullptr, nullptr, nullptr);
  ScriptedClient client(client_engine_, 2);
  drive(server, client);
  EXPECT_TRUE(client.done());
  EXPECT_FALSE(client.failed());
  EXPECT_EQ(server.state(), ConnState::kClosed);
  EXPECT_FALSE(server.failed());
  EXPECT_FALSE(server.was_shed());
}

TEST_F(AsyncConnectionTest, ByteAtATimePartialReadsAndWrites) {
  ServerConnection server(server_engine_, 3, nullptr, nullptr, nullptr);
  ScriptedClient client(client_engine_, 4);
  drive(server, client, /*chunk=*/1);
  EXPECT_TRUE(client.done());
  EXPECT_EQ(server.state(), ConnState::kClosed);
}

TEST_F(AsyncConnectionTest, PartialWriteHoldsSendingFlightState) {
  ServerConnection server(server_engine_, 5, nullptr, nullptr, nullptr);
  ScriptedClient client(client_engine_, 6);
  client.start();
  auto hello = client.take_output();
  server.on_input(hello);
  // Flight 1 (ServerHello + Certificate) is queued; drain one byte.
  ASSERT_EQ(server.state(), ConnState::kSendingFlight);
  const std::size_t pending = server.output_pending();
  ASSERT_GT(pending, 1u);
  auto first = server.take_output(1);
  EXPECT_EQ(first.size(), 1u);
  EXPECT_EQ(server.state(), ConnState::kSendingFlight);
  EXPECT_EQ(server.output_pending(), pending - 1);
  // Draining the rest releases the state machine.
  auto rest = server.take_output();
  EXPECT_EQ(server.state(), ConnState::kReadingKeyExchange);
  first.insert(first.end(), rest.begin(), rest.end());
  client.on_server_bytes(first);
  EXPECT_FALSE(client.failed());
  EXPECT_GT(client.output_pending(), 0u);  // CKX + Finished queued
}

TEST_F(AsyncConnectionTest, FutureResolutionOrderIsIrrelevant) {
  // Two connections park on their private ops; resolving them in reverse
  // submission order must complete both (the reactor gives no ordering
  // guarantee — completions land as batches finish).
  ServerConnection sa(server_engine_, 7, nullptr, nullptr, nullptr);
  ServerConnection sb(server_engine_, 8, nullptr, nullptr, nullptr);
  ScriptedClient ca(client_engine_, 9);
  ScriptedClient cb(client_engine_, 10);

  auto park = [&](ServerConnection& s, ScriptedClient& c) {
    c.start();
    s.on_input(c.take_output());
    c.on_server_bytes(s.take_output());
    s.on_input(c.take_output());  // CKX + Finished
    EXPECT_EQ(s.state(), ConnState::kAwaitPrivateOp);
    auto op = s.take_pending_op();
    EXPECT_TRUE(op.has_value());
    return op;
  };
  auto opa = park(sa, ca);
  auto opb = park(sb, cb);

  auto unpark = [&](ServerConnection& s, ScriptedClient& c,
                    const PendingOp& op) {
    s.on_crypto_result(resolve_pending_op(server_engine_, op, rng_));
    c.on_server_bytes(s.take_output());  // server Finished
    s.on_input(c.take_output());         // ping
    c.on_server_bytes(s.take_output());  // echo
    s.on_input(c.take_output());         // close
    EXPECT_TRUE(c.done());
    EXPECT_EQ(s.state(), ConnState::kClosed);
  };
  unpark(sb, cb, *opb);  // B first, though A submitted first
  unpark(sa, ca, *opa);
}

TEST_F(AsyncConnectionTest, ShedBeforePrivateOpCreatesNoCryptoWork) {
  AdmissionController admission(AdmissionConfig{.max_pending_ops = 1});
  // Occupy the single op slot so the connection must be rejected.
  const auto held = admission.try_admit();
  ASSERT_TRUE(held.has_value());

  ServerConnection server(server_engine_, 11, nullptr, &admission, nullptr);
  ScriptedClient client(client_engine_, 12);
  client.start();
  server.on_input(client.take_output());
  client.on_server_bytes(server.take_output());
  server.on_input(client.take_output());  // CKX + Finished -> admission

  EXPECT_TRUE(server.was_shed());
  EXPECT_FALSE(server.take_pending_op().has_value());  // no crypto work
  EXPECT_EQ(admission.shed(), 1u);
  EXPECT_EQ(admission.pending(), 1u);  // only the held slot

  client.on_server_bytes(server.take_output());  // alert
  EXPECT_TRUE(client.failed());
  EXPECT_EQ(server.state(), ConnState::kClosed);
}

TEST_F(AsyncConnectionTest, AdmissionReleasesOnComplete) {
  AdmissionController admission(AdmissionConfig{.max_pending_ops = 1});
  const auto a = admission.try_admit();
  ASSERT_TRUE(a.has_value());
  EXPECT_FALSE(admission.try_admit().has_value());
  admission.on_complete(*a, 1000.0);
  EXPECT_TRUE(admission.try_admit().has_value());
  EXPECT_EQ(admission.shed(), 1u);
}

TEST(AsyncAdmission, EwmaSampleAtDepthZeroIsTheRawLatency) {
  // An op admitted at depth 0 crossed exactly one batch, so its full
  // latency IS one batch's cost: a 1600us op must teach the predictor
  // 1600us, and predict() (depth 0, one batch ahead) must echo it. The
  // 16/(d+1) inflation bug fed 25600us into the EWMA from this same
  // sample.
  AdmissionController a(AdmissionConfig{}, std::chrono::microseconds(0));
  const auto d = a.try_admit();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, 0u);
  a.on_complete(*d, 1600.0);
  EXPECT_EQ(a.predict().count(), 1600);
}

TEST(AsyncAdmission, EwmaSampleAtDepthThirtyOneSpansTwoBatches) {
  // Depth 31 = the 32nd op in the queue: two full 16-lane batches must
  // drain before its result, so a 1600us end-to-end latency means one
  // batch costs 800us.
  AdmissionController a(AdmissionConfig{}, std::chrono::microseconds(0));
  const auto d = a.try_admit();  // balance the pending_ decrement below
  ASSERT_TRUE(d.has_value());
  a.on_complete(/*depth_at_admit=*/31, 1600.0);
  EXPECT_EQ(a.predict().count(), 800);
}

TEST(AsyncAdmission, LightLoadWarmupDoesNotShedAtPermittedDepth) {
  // Regression for the 16x inflation: a sequence of light-load (depth-0)
  // completions at 500us each must leave the predictor at ~500us/batch,
  // so a burst up to depth 32 predicts at most 3 batches * 500us + 500us
  // linger = 2000us — far under the 5000us budget. The inflated EWMA
  // (8000us) shed the very first op of the burst.
  AdmissionController a(
      AdmissionConfig{.max_predicted_wait = std::chrono::microseconds(5000)},
      std::chrono::microseconds(500));
  for (int i = 0; i < 8; ++i) {
    const auto d = a.try_admit();
    ASSERT_TRUE(d.has_value()) << "warmup op " << i << " shed";
    a.on_complete(*d, 500.0);
  }
  std::vector<std::size_t> held;
  for (int i = 0; i < 33; ++i) {
    const auto d = a.try_admit();
    ASSERT_TRUE(d.has_value()) << "burst op " << i << " shed";
    held.push_back(*d);
  }
  EXPECT_EQ(a.shed(), 0u);
  for (const std::size_t d : held) a.on_complete(d, 500.0);
}

TEST(AsyncAdmission, SlowOpDoesNotLatchTheGateShut) {
  // The EWMA learns only from completions. One slow op lifts predict()
  // past the budget; were arrivals with nothing pending shed too, nothing
  // would complete again and the gate would stay shut. They pass, and
  // their completions bring the EWMA back down.
  AdmissionController a(
      AdmissionConfig{.max_predicted_wait = std::chrono::microseconds(400)},
      std::chrono::microseconds(0));
  const auto slow = a.try_admit();
  ASSERT_TRUE(slow.has_value());
  a.on_complete(*slow, 5000.0);
  ASSERT_EQ(a.predict().count(), 5000);

  // At 5000us a batch, the bound still sheds an arrival behind a held op.
  const auto held = a.try_admit();
  ASSERT_TRUE(held.has_value()) << "depth-0 arrival shed after a slow op";
  EXPECT_EQ(*held, 0u);
  EXPECT_FALSE(a.try_admit().has_value());
  EXPECT_EQ(a.shed(), 1u);
  a.on_complete(*held, 100.0);

  // With the held op's, 24 samples of 100us leave 100 + 4900 * (7/8)^24
  // = ~299us a batch, so an arrival behind one pending op fits again.
  for (int i = 1; i < 24; ++i) {
    const auto d = a.try_admit();
    ASSERT_TRUE(d.has_value()) << "depth-0 arrival " << i << " shed";
    EXPECT_EQ(*d, 0u);
    a.on_complete(*d, 100.0);
  }
  EXPECT_LE(a.predict().count(), 400);
  const auto first = a.try_admit();
  const auto second = a.try_admit();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value()) << "depth-1 arrival shed";
  EXPECT_EQ(*second, 1u);
  EXPECT_EQ(a.shed(), 1u);
  a.on_complete(*first, 100.0);
  a.on_complete(*second, 100.0);
}

TEST_F(AsyncConnectionTest, PredictedWaitBoundSheds) {
  AdmissionController admission(
      AdmissionConfig{.max_predicted_wait = std::chrono::microseconds(400)},
      std::chrono::microseconds(500));
  // The linger term alone (500us) exceeds the 400us budget: with one op
  // held, every further arrival must shed. (An arrival with nothing
  // pending passes the bound; AsyncAdmission.SlowOpDoesNotLatchTheGateShut.)
  const auto held = admission.try_admit();
  ASSERT_TRUE(held.has_value());
  EXPECT_FALSE(admission.try_admit().has_value());
  EXPECT_EQ(admission.shed(), 1u);
  EXPECT_EQ(admission.pending(), 1u);
  admission.on_complete(*held, 100.0);
  EXPECT_EQ(admission.pending(), 0u);
}

TEST_F(AsyncConnectionTest, ResumedHandshakeSkipsPrivateOp) {
  SessionCache cache(SessionCacheConfig{.capacity = 16, .shards = 1});
  ResumableSession session;
  {
    ServerConnection server(server_engine_, 13, &cache, nullptr, nullptr);
    ScriptedClient client(client_engine_, 14);
    drive(server, client);
    ASSERT_TRUE(client.done());
    session = client.resumable();
  }
  ServerConnection server(server_engine_, 15, &cache, nullptr, nullptr);
  ScriptedClient client(client_engine_, 16, session);
  client.start();
  server.on_input(client.take_output());
  // Abbreviated flow: no certificate, no ClientKeyExchange, NO pending op.
  EXPECT_FALSE(server.take_pending_op().has_value());
  client.on_server_bytes(server.take_output());  // hello + server Finished
  server.on_input(client.take_output());         // client Finished + ping
  EXPECT_FALSE(server.take_pending_op().has_value());
  client.on_server_bytes(server.take_output());  // echo
  server.on_input(client.take_output());         // close
  EXPECT_TRUE(client.done());
  EXPECT_TRUE(client.resumed());
  EXPECT_TRUE(server.resumed());
  EXPECT_EQ(server.state(), ConnState::kClosed);
}

TEST_F(AsyncConnectionTest, DheHandshakeParksOnSignature) {
  const dh::Dh group(dh::rfc2409_group2());
  ServerConnection server(server_engine_, 17, nullptr, nullptr, &group);
  ScriptedClient client(client_engine_, 18, std::nullopt, /*use_dhe=*/true);
  client.start();
  server.on_input(client.take_output());
  ASSERT_EQ(server.state(), ConnState::kAwaitSignature);
  auto op = server.take_pending_op();
  ASSERT_TRUE(op.has_value());
  EXPECT_EQ(op->kind, PendingOp::Kind::kSign);
  EXPECT_EQ(op->payload.size(), 32u);  // SHA-256 digest

  server.on_crypto_result(resolve_pending_op(server_engine_, *op, rng_));
  client.on_server_bytes(server.take_output());  // hello + cert + skx
  server.on_input(client.take_output());         // dhe kex + finished
  EXPECT_FALSE(server.take_pending_op().has_value());  // DH exp is inline
  client.on_server_bytes(server.take_output());  // server finished
  server.on_input(client.take_output());         // ping
  client.on_server_bytes(server.take_output());  // echo
  server.on_input(client.take_output());         // close
  EXPECT_TRUE(client.done());
  EXPECT_EQ(server.state(), ConnState::kClosed);
}

TEST_F(AsyncConnectionTest, TamperedCiphertextFailsLikeBadFinished) {
  ServerConnection server(server_engine_, 19, nullptr, nullptr, nullptr);
  ScriptedClient client(client_engine_, 20);
  client.start();
  server.on_input(client.take_output());
  client.on_server_bytes(server.take_output());
  server.on_input(client.take_output());
  auto op = server.take_pending_op();
  ASSERT_TRUE(op.has_value());
  op->payload[op->payload.size() / 2] ^= 0x40;  // corrupt the ciphertext
  server.on_crypto_result(resolve_pending_op(server_engine_, *op, rng_));
  // Uniform-failure discipline: the substituted random premaster fails
  // the Finished check; the client sees kBadFinished, never a decrypt
  // error.
  EXPECT_TRUE(server.failed());
  FrameReader peek;
  peek.feed(server.take_output());
  const auto alert = peek.next();
  ASSERT_TRUE(alert.has_value());
  ASSERT_EQ(alert->type, MsgType::kAlert);
  EXPECT_EQ(decode_alert(alert->body), Alert::kBadFinished);
}

TEST_F(AsyncConnectionTest, GarbageInputAlertsAndCloses) {
  ServerConnection server(server_engine_, 21, nullptr, nullptr, nullptr);
  const std::uint8_t evil[4] = {1, 0xff, 0xff, 0xff};  // oversized header
  server.on_input(evil);
  EXPECT_TRUE(server.failed());
  EXPECT_EQ(server.state(), ConnState::kDraining);
  server.take_output();
  EXPECT_EQ(server.state(), ConnState::kClosed);
}

TEST_F(AsyncConnectionTest, OutOfOrderMessageAlerts) {
  ServerConnection server(server_engine_, 22, nullptr, nullptr, nullptr);
  server.on_input(encode_finished(Finished{}));  // before any hello
  EXPECT_TRUE(server.failed());
  FrameReader peek;
  peek.feed(server.take_output());
  const auto alert = peek.next();
  ASSERT_TRUE(alert.has_value());
  EXPECT_EQ(decode_alert(alert->body), Alert::kUnexpectedMessage);
}

// --- Event frontend (Reactor) ----------------------------------------------

class AsyncDriverTest : public ::testing::Test {
 protected:
  AsyncDriverTest() : engine_(rsa::test_key(1024), rsa::EngineOptions{}) {}

  DriverConfig event_config(std::size_t n) const {
    DriverConfig cfg;
    cfg.frontend = Frontend::kEvent;
    cfg.num_handshakes = n;
    cfg.event_workers = 2;
    cfg.max_open_connections = 32;
    cfg.batch_linger = std::chrono::microseconds(200);
    cfg.seed = 42;
    return cfg;
  }

  rsa::Engine engine_;
};

TEST_F(AsyncDriverTest, EventFrontendTerminatesAllConnections) {
  for (const rsa::Backend b : rsa::kAllBackends) {
    if (!rsa::has_batch_form(b)) continue;
    SCOPED_TRACE(rsa::to_string(b));
    auto cfg = event_config(64);
    cfg.batch_backend = b;
    const DriverReport report = run_handshakes(engine_, cfg);
    EXPECT_EQ(report.completed, 64u);
    EXPECT_EQ(report.failed, 0u);
    EXPECT_EQ(report.shed, 0u);
    // Every full handshake's decryption went through the service.
    EXPECT_EQ(report.service_requests, 64u);
    EXPECT_EQ(report.lanes_signed + report.single_ops,
              report.service_requests);
    EXPECT_EQ(report.padded_lanes, report.batches * 16 - report.lanes_signed);
    EXPECT_GT(report.handshakes_per_s, 0.0);
    EXPECT_EQ(report.latency_us.count, 64u);
  }
}

TEST_F(AsyncDriverTest, EventFrontendResumesSessions) {
  auto cfg = event_config(80);
  cfg.resumption_ratio = 0.6;
  const DriverReport report = run_handshakes(engine_, cfg);
  EXPECT_EQ(report.completed, 80u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_GT(report.resumed, 0u);
  EXPECT_GT(report.cache_hits, 0u);
}

TEST_F(AsyncDriverTest, OverloadShedsInsteadOfQueueing) {
  auto cfg = event_config(96);
  cfg.max_open_connections = 96;  // all in flight at once
  cfg.admission.max_pending_ops = 8;
  const DriverReport report = run_handshakes(engine_, cfg);
  EXPECT_GT(report.shed, 0u);
  EXPECT_GT(report.completed, 0u);
  EXPECT_EQ(report.completed + report.failed + report.shed, 96u);
  EXPECT_EQ(report.failed, 0u);  // shed is not failure
}

TEST_F(AsyncDriverTest, DheConnectionsShareTheBatches) {
  auto cfg = event_config(32);
  cfg.event_dhe_ratio = 0.5;
  const DriverReport report = run_handshakes(engine_, cfg);
  EXPECT_EQ(report.completed, 32u);
  EXPECT_EQ(report.failed, 0u);
  // One private op per connection — a decryption or a DHE signature —
  // through the same service.
  EXPECT_EQ(report.service_requests, 32u);
  EXPECT_EQ(report.lanes_signed + report.single_ops, report.service_requests);
  EXPECT_EQ(report.padded_lanes, report.batches * 16 - report.lanes_signed);
}

TEST_F(AsyncDriverTest, PredictedWaitCountsOnlyTheDecrypterLinger) {
  // A 400us budget on 512-bit keys: the predictor's linger term is the
  // decrypter's own — zero inline, batch_linger batched — so an arrival
  // behind a pending op can fit the budget. A fixed 500us term alone
  // would exceed it and shed every such arrival. With either decrypter
  // every connection completes or is shed, and none fails.
  const rsa::Engine engine(rsa::test_key(512), rsa::EngineOptions{});
  for (const bool batched : {false, true}) {
    SCOPED_TRACE(batched ? "batched, 100us linger" : "inline");
    auto cfg = event_config(64);
    cfg.batch_private_ops = batched;
    cfg.batch_linger = std::chrono::microseconds(100);
    cfg.admission.max_predicted_wait = std::chrono::microseconds(400);
    const DriverReport report = run_handshakes(engine, cfg);
    EXPECT_GT(report.completed, 0u);
    EXPECT_EQ(report.failed, 0u);
    EXPECT_EQ(report.completed + report.shed, 64u);
  }
}

TEST_F(AsyncDriverTest, EventDheRatioNeedsValidRange) {
  auto cfg = event_config(4);
  cfg.event_dhe_ratio = 1.5;
  EXPECT_THROW(run_handshakes(engine_, cfg), std::invalid_argument);
}

TEST_F(AsyncDriverTest, NanRatiosAndBadRatesAreRejected) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const Frontend f : {Frontend::kEvent, Frontend::kSocket}) {
    auto cfg = event_config(4);
    cfg.frontend = f;
    cfg.resumption_ratio = kNan;
    EXPECT_THROW(run_handshakes(engine_, cfg), std::invalid_argument);
    cfg.resumption_ratio = 0.0;
    cfg.event_dhe_ratio = kNan;
    EXPECT_THROW(run_handshakes(engine_, cfg), std::invalid_argument);
    cfg.event_dhe_ratio = 0.0;
    for (const double rate : {-1.0, kNan, kInf}) {
      cfg.socket_arrival_per_s = rate;
      EXPECT_THROW(run_handshakes(engine_, cfg), std::invalid_argument)
          << rate;
    }
  }
  // The client fleet checks its own knobs (phissl_loadgen --connect).
  const rsa::Engine pub(engine_.pub(), rsa::EngineOptions{});
  for (const double rate : {-1.0, kNan, kInf}) {
    LoadGenConfig lg;
    lg.total_connections = 1;
    lg.arrival_rate_per_s = rate;
    EXPECT_THROW(run_load(pub, lg), std::invalid_argument) << rate;
  }
  LoadGenConfig lg;
  lg.total_connections = 1;
  lg.resumption_ratio = kNan;
  EXPECT_THROW(run_load(pub, lg), std::invalid_argument);
}

// --- The scalar decrypter: every op resolved inline on its worker ----------

TEST_F(AsyncDriverTest, ScalarReactorCompletesOnBothFrontends) {
  for (const Frontend f : {Frontend::kEvent, Frontend::kSocket}) {
    SCOPED_TRACE(f == Frontend::kEvent ? "event" : "socket");
    auto cfg = event_config(48);
    cfg.frontend = f;
    cfg.batch_private_ops = false;
    cfg.socket_clients = 16;
    const DriverReport report = run_handshakes(engine_, cfg);
    EXPECT_EQ(report.completed, 48u);
    EXPECT_EQ(report.failed, 0u);
    EXPECT_EQ(report.shed, 0u);
    EXPECT_EQ(report.latency_us.count, 48u);
    // No batch service exists, so nothing reached one.
    EXPECT_EQ(report.service_requests, 0u);
    EXPECT_EQ(report.batches, 0u);
    EXPECT_EQ(report.single_ops, 0u);
  }
}

TEST_F(AsyncDriverTest, ScalarReactorSignsDheInline) {
  // Half the connections negotiate DHE-RSA: their ServerKeyExchange
  // signature is resolved on the worker, and the client verifies it
  // before it sends its key exchange, so completion proves the signature.
  // A blinding engine needs the worker's Rng for both op kinds.
  for (const bool blinding : {false, true}) {
    SCOPED_TRACE(blinding ? "blinding" : "no blinding");
    const rsa::Engine engine(rsa::test_key(1024),
                             rsa::EngineOptions{.blinding = blinding});
    auto cfg = event_config(32);
    cfg.batch_private_ops = false;
    cfg.event_dhe_ratio = 0.5;
    const DriverReport report = run_handshakes(engine, cfg);
    EXPECT_EQ(report.completed, 32u);
    EXPECT_EQ(report.failed, 0u);
    EXPECT_EQ(report.service_requests, 0u);
  }
}

TEST_F(AsyncDriverTest, ScalarReactorAdmissionCapAccountsForEveryConnection) {
  // Inline resolution holds at most one op per worker; a cap of one lets
  // a worker shed while another resolves. Whatever is shed, every
  // connection either completes or sheds.
  auto cfg = event_config(96);
  cfg.event_workers = 4;
  cfg.max_open_connections = 96;
  cfg.batch_private_ops = false;
  cfg.admission.max_pending_ops = 1;
  const DriverReport report = run_handshakes(engine_, cfg);
  EXPECT_EQ(report.completed + report.shed, 96u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_GT(report.completed, 0u);
}

TEST_F(AsyncDriverTest, DefaultConfigBatchesOnBothFrontends) {
  // The socket frontend's servers (bench/e2e, phissl_loadgen) never set
  // batch_private_ops: the default must send every full handshake's
  // private op through the batch service.
  for (const Frontend f : {Frontend::kEvent, Frontend::kSocket}) {
    SCOPED_TRACE(f == Frontend::kEvent ? "event" : "socket");
    DriverConfig cfg;
    cfg.frontend = f;
    cfg.num_handshakes = 32;
    cfg.resumption_ratio = 0.5;
    const DriverReport report = run_handshakes(engine_, cfg);
    EXPECT_EQ(report.completed, 32u);
    EXPECT_EQ(report.failed, 0u);
    EXPECT_EQ(report.service_requests, report.completed - report.resumed);
    EXPECT_GT(report.service_requests, 0u);
  }
}

// --- Concurrency churn (TSan target: no timing asserts) ---------------------

TEST(AsyncConcurrency, Churn1kConnectionsOver2Workers) {
  // 1024 connections multiplexed over 2 reactor workers and a handful of
  // slots, with resumption and admission enabled so every code path
  // (park/resume, shed, abbreviated) runs concurrently. Correctness
  // asserts only — this test is in the TSan CI leg.
  const rsa::Engine engine(rsa::test_key(512), rsa::EngineOptions{});
  DriverConfig cfg;
  cfg.frontend = Frontend::kEvent;
  cfg.num_handshakes = 1024;
  cfg.event_workers = 2;
  cfg.max_open_connections = 64;
  cfg.resumption_ratio = 0.5;
  cfg.admission.max_pending_ops = 48;
  cfg.batch_linger = std::chrono::microseconds(100);
  cfg.seed = 7;
  const DriverReport report = run_handshakes(engine, cfg);
  EXPECT_EQ(report.completed + report.failed + report.shed, 1024u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_GT(report.completed, 0u);
  EXPECT_EQ(report.latency_us.count, 1024u);
}

}  // namespace
}  // namespace phissl::ssl::async
