// phissl_e2e_layers: times each layer's public calls on inputs shaped like
// the end-to-end workloads (the 2048-bit test key, its 1024-bit CRT halves,
// 1024-bit DH, ping-sized records), for the benchmark's traced run.
//
//   phissl_e2e_layers [--quick]
//
// Every probed result is first checked against a reference: Montgomery
// products against BigInt arithmetic, private ops against rsa::Engine on
// the scalar64 kernel, DH against the scalar64 group, the service against
// the plaintext it decrypts, the record layer and cache against their
// inputs, and the in-memory handshakes against the client's own Finished
// and echo checks. With host libcrypto (PHISSL_E2E_LIBCRYPTO), its RSA
// private op on the same key must be bit-identical to ours, and its time
// is the "default OpenSSL" reference row. Nothing is timed unless every
// check passed (exit 1 otherwise).
//
// Output: one JSON object of metric -> value on the last stdout line.
// Each timing is the median over several samples of a loop of calls.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "dh/dh.hpp"
#include "mont/batch.hpp"
#include "mont/ifma_mont.hpp"
#include "rsa/batch_engine.hpp"
#include "rsa/engine.hpp"
#include "rsa/key.hpp"
#include "rsa/pkcs1.hpp"
#include "ssl/async/connection.hpp"
#include "ssl/batch_decrypt.hpp"
#include "ssl/record.hpp"
#include "ssl/session_cache.hpp"
#include "util/random.hpp"

#ifdef PHISSL_E2E_LIBCRYPTO
#include <openssl/core_names.h>
#include <openssl/crypto.h>
#include <openssl/evp.h>
#include <openssl/param_build.h>
#include <openssl/rsa.h>
#endif

namespace {

using namespace phissl;
using bigint::BigInt;
using Clock = std::chrono::steady_clock;

void check(bool ok, const char* what) {
  if (!ok) throw std::runtime_error(std::string("check failed: ") + what);
}

/// Median over `samples` of the mean ns per call of `calls` calls.
double median_ns(std::size_t samples, std::size_t calls,
                 const std::function<void()>& fn) {
  fn();  // warm-up: per-thread workspaces, caches
  std::vector<double> per_call;
  per_call.reserve(samples);
  for (std::size_t s = 0; s < samples; ++s) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t c = 0; c < calls; ++c) fn();
    per_call.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
        static_cast<double>(calls));
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// The probes' shared state: the workload key, scalar references, and the
/// engines the server runs.
struct Fixture {
  const rsa::PrivateKey& key = rsa::test_key(2048);
  rsa::Engine ref{key, rsa::EngineOptions{.kernel = rsa::Kernel::kScalar64}};
  rsa::Engine eng{key, rsa::EngineOptions{.kernel = rsa::Kernel::kIfma52}};
  rsa::Engine pub{key.pub, rsa::EngineOptions{.kernel = rsa::Kernel::kIfma52}};
  util::Rng rng{0xe2e1a7e55ULL};
  std::size_t k = key.pub.byte_size();
  bool quick = false;

  std::size_t samples() const { return quick ? 3 : 9; }
};

using Metrics = std::map<std::string, double>;

void probe_mont(Fixture& fx, Metrics& m) {
  const BigInt& p = fx.key.p;
  const mont::IfmaMontCtx ctx(p);
  const BigInt a = BigInt::random_below(p, fx.rng);
  const BigInt b = BigInt::random_below(p, fx.rng);
  const mont::IfmaMontCtx::Rep ra = ctx.to_mont(a);
  const mont::IfmaMontCtx::Rep rb = ctx.to_mont(b);
  mont::IfmaMontCtx::Rep out;
  mont::IfmaMontCtx::Workspace ws;
  ctx.mul(ra, rb, out, ws);
  check(ctx.from_mont(out) == (a * b) % p, "IfmaMontCtx::mul");
  ctx.sqr(ra, out, ws);
  check(ctx.from_mont(out) == (a * a) % p, "IfmaMontCtx::sqr");

  const mont::BatchIfmaMontCtx bctx(p);
  std::array<BigInt, mont::BatchIfmaMontCtx::kBatch> xs;
  std::array<BigInt, mont::BatchIfmaMontCtx::kBatch> ys;
  for (std::size_t l = 0; l < xs.size(); ++l) {
    xs[l] = BigInt::random_below(p, fx.rng);
    ys[l] = BigInt::random_below(p, fx.rng);
  }
  const auto bx = bctx.to_mont(xs);
  const auto by = bctx.to_mont(ys);
  mont::BatchIfmaMontCtx::Rep bout;
  mont::BatchIfmaMontCtx::Workspace bws;
  bctx.mul(bx, by, bout, bws);
  const auto lanes = bctx.from_mont(bout);
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    check(lanes[l] == (xs[l] * ys[l]) % p, "BatchIfmaMontCtx::mul lane");
  }

  const std::size_t calls = 20000;
  m["mont.mul_ns"] =
      median_ns(fx.samples(), calls, [&] { ctx.mul(ra, out, out, ws); });
  ctx.mul(ra, rb, out, ws);
  m["mont.sqr_ns"] =
      median_ns(fx.samples(), calls, [&] { ctx.sqr(out, out, ws); });
  bout = bx;
  m["mont.batch16_mul_ns"] = median_ns(fx.samples(), calls / 8,
                                       [&] { bctx.mul(by, bout, bout, bws); });
}

void probe_rsa(Fixture& fx, Metrics& m) {
  std::array<BigInt, rsa::BatchEngine::kBatch> xs;
  std::array<BigInt, rsa::BatchEngine::kBatch> want;
  for (std::size_t l = 0; l < xs.size(); ++l) {
    xs[l] = BigInt::random_below(fx.key.pub.n, fx.rng);
    want[l] = fx.ref.private_op(xs[l]);
    check(fx.eng.private_op(xs[l]) == want[l], "Engine(ifma52) private op");
  }
  const rsa::BatchEngine batch(fx.key, rsa::Backend::kIfma52);
  check(batch.backend() == rsa::Backend::kIfma52, "BatchEngine backend");
  std::array<BigInt, rsa::BatchEngine::kBatch> out;
  batch.private_op(xs, out);
  check(out == want, "BatchEngine(ifma52) lanes");

  BigInt one;
  m["rsa.crt_private_us"] =
      median_ns(fx.samples(), fx.quick ? 5 : 40,
                [&] { fx.eng.private_op_into(xs[0], one); }) *
      1e-3;
  m["rsa.batch16_private_ms"] =
      median_ns(fx.samples(), fx.quick ? 1 : 4,
                [&] { batch.private_op(xs, out); }) *
      1e-6;
  m["rsa.batch_gain"] = 16.0 * m["rsa.crt_private_us"] /
                        (m["rsa.batch16_private_ms"] * 1e3);
}

#ifdef PHISSL_E2E_LIBCRYPTO
/// RAII holders for the libcrypto objects the reference row needs.
struct BnFree {
  void operator()(BIGNUM* b) const { BN_clear_free(b); }
};
struct PkeyFree {
  void operator()(EVP_PKEY* p) const { EVP_PKEY_free(p); }
};
struct CtxFree {
  void operator()(EVP_PKEY_CTX* c) const { EVP_PKEY_CTX_free(c); }
};
struct BldFree {
  void operator()(OSSL_PARAM_BLD* b) const { OSSL_PARAM_BLD_free(b); }
};
struct ParamFree {
  void operator()(OSSL_PARAM* p) const { OSSL_PARAM_free(p); }
};

std::unique_ptr<BIGNUM, BnFree> to_bn(const BigInt& x) {
  const std::vector<std::uint8_t> be = x.to_bytes_be();
  return std::unique_ptr<BIGNUM, BnFree>(
      BN_bin2bn(be.data(), static_cast<int>(be.size()), nullptr));
}

void probe_libcrypto(Fixture& fx, Metrics& m) {
  const rsa::PrivateKey& key = fx.key;
  const auto n = to_bn(key.pub.n), e = to_bn(key.pub.e), d = to_bn(key.d),
             p = to_bn(key.p), q = to_bn(key.q), dp = to_bn(key.dp),
             dq = to_bn(key.dq), qinv = to_bn(key.qinv);
  std::unique_ptr<OSSL_PARAM_BLD, BldFree> bld(OSSL_PARAM_BLD_new());
  check(bld && n && e && d && p && q && dp && dq && qinv, "libcrypto alloc");
  check(OSSL_PARAM_BLD_push_BN(bld.get(), OSSL_PKEY_PARAM_RSA_N, n.get()) &&
            OSSL_PARAM_BLD_push_BN(bld.get(), OSSL_PKEY_PARAM_RSA_E, e.get()) &&
            OSSL_PARAM_BLD_push_BN(bld.get(), OSSL_PKEY_PARAM_RSA_D, d.get()) &&
            OSSL_PARAM_BLD_push_BN(bld.get(), OSSL_PKEY_PARAM_RSA_FACTOR1,
                                   p.get()) &&
            OSSL_PARAM_BLD_push_BN(bld.get(), OSSL_PKEY_PARAM_RSA_FACTOR2,
                                   q.get()) &&
            OSSL_PARAM_BLD_push_BN(bld.get(), OSSL_PKEY_PARAM_RSA_EXPONENT1,
                                   dp.get()) &&
            OSSL_PARAM_BLD_push_BN(bld.get(), OSSL_PKEY_PARAM_RSA_EXPONENT2,
                                   dq.get()) &&
            OSSL_PARAM_BLD_push_BN(bld.get(), OSSL_PKEY_PARAM_RSA_COEFFICIENT1,
                                   qinv.get()),
        "libcrypto key params");
  std::unique_ptr<OSSL_PARAM, ParamFree> params(
      OSSL_PARAM_BLD_to_param(bld.get()));
  std::unique_ptr<EVP_PKEY_CTX, CtxFree> kctx(
      EVP_PKEY_CTX_new_from_name(nullptr, "RSA", nullptr));
  EVP_PKEY* raw = nullptr;
  check(params && kctx && EVP_PKEY_fromdata_init(kctx.get()) == 1 &&
            EVP_PKEY_fromdata(kctx.get(), &raw, EVP_PKEY_KEYPAIR,
                              params.get()) == 1,
        "libcrypto EVP_PKEY_fromdata");
  const std::unique_ptr<EVP_PKEY, PkeyFree> pkey(raw);
  std::unique_ptr<EVP_PKEY_CTX, CtxFree> ctx(
      EVP_PKEY_CTX_new_from_pkey(nullptr, pkey.get(), nullptr));
  check(ctx && EVP_PKEY_decrypt_init(ctx.get()) == 1 &&
            EVP_PKEY_CTX_set_rsa_padding(ctx.get(), RSA_NO_PADDING) == 1,
        "libcrypto decrypt init");

  // Raw x^d mod n, the same operation as Engine::private_op.
  std::vector<std::uint8_t> out(fx.k);
  const auto raw_private = [&](const std::vector<std::uint8_t>& in) {
    std::size_t len = out.size();
    return EVP_PKEY_decrypt(ctx.get(), out.data(), &len, in.data(),
                            in.size()) == 1 &&
           len == fx.k;
  };
  std::vector<std::uint8_t> in;
  for (int i = 0; i < 16; ++i) {
    const BigInt x = BigInt::random_below(fx.key.pub.n, fx.rng);
    in = x.to_bytes_be(fx.k);
    check(raw_private(in), "libcrypto private op");
    check(out == fx.ref.private_op(x).to_bytes_be(fx.k),
          "libcrypto private op bit-identical to ours");
  }
  m["rsa.ref_libcrypto_private_us"] =
      median_ns(fx.samples(), fx.quick ? 5 : 40, [&] { raw_private(in); }) *
      1e-3;
  std::fprintf(stderr, "libcrypto reference: %s\n",
               OpenSSL_version(OPENSSL_VERSION));
}
#endif

void probe_dh(Fixture& fx, Metrics& m) {
  const dh::Dh group(dh::rfc2409_group2(), rsa::Kernel::kIfma52);
  const dh::Dh ref(dh::rfc2409_group2(), rsa::Kernel::kScalar64);
  const dh::KeyPair a = group.generate_keypair(fx.rng);
  const dh::KeyPair b = group.generate_keypair(fx.rng);
  const BigInt shared = group.compute_shared(a.x, b.y);
  check(shared == ref.compute_shared(a.x, b.y), "Dh(ifma52) vs scalar64");
  check(shared == group.compute_shared(b.x, a.y), "Dh agreement symmetric");
  m["dh.agree_us"] = median_ns(fx.samples(), fx.quick ? 10 : 100, [&] {
                       (void)group.compute_shared(a.x, b.y);
                     }) *
                     1e-3;
}

void probe_service(Fixture& fx, Metrics& m) {
  // The server's configuration: one dispatch thread, library defaults.
  ssl::BatchDecryptService svc(
      fx.key, ssl::BatchDecryptConfig{.dispatch_threads = 1,
                                      .backend = rsa::Backend::kIfma52});
  std::vector<std::vector<std::uint8_t>> premasters(16);
  std::vector<std::vector<std::uint8_t>> cts(16);
  for (std::size_t i = 0; i < cts.size(); ++i) {
    premasters[i] = fx.rng.bytes(48);
    cts[i] = rsa::encrypt_pkcs1(fx.pub, premasters[i], fx.rng);
  }
  std::vector<std::optional<std::vector<std::uint8_t>>> got(cts.size());
  // Submits ops [0, n) together and returns the wall time until the last
  // completion, in microseconds. Each completion writes only its own slot.
  const auto burst = [&](std::size_t n) {
    std::latch landed(static_cast<std::ptrdiff_t>(n));
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      svc.decrypt_premaster_async(
          cts[i], [&, i](std::optional<std::vector<std::uint8_t>> r) {
            got[i] = std::move(r);
            landed.count_down();
          });
    }
    landed.wait();
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
  };
  burst(cts.size());
  for (std::size_t i = 0; i < cts.size(); ++i) {
    check(got[i].has_value() && *got[i] == premasters[i],
          "BatchDecryptService premaster");
  }

  std::vector<double> solo;
  std::vector<double> burst16;
  for (std::size_t s = 0; s < fx.samples(); ++s) {
    solo.push_back(burst(1));
    burst16.push_back(burst(16) / 16.0);
  }
  m["service.solo_op_us"] = median_of(solo);
  m["service.burst16_op_us"] = median_of(burst16);
}

void probe_record(Fixture& fx, Metrics& m) {
  const std::vector<std::uint8_t> enc = fx.rng.bytes(ssl::kEncKeySize);
  const std::vector<std::uint8_t> mac = fx.rng.bytes(ssl::kMacKeySize);
  const std::vector<std::uint8_t> ping{'p', 'i', 'n', 'g'};
  ssl::RecordChannel sealer(enc, mac);
  ssl::RecordChannel opener(enc, mac);
  const std::size_t n = fx.quick ? 2000 : 20000;
  std::vector<std::vector<std::uint8_t>> records;
  records.reserve(n * (fx.samples() + 1));
  const auto seal_one = [&] {
    records.push_back(sealer.seal(ssl::kContentApplicationData, ping, fx.rng));
  };
  seal_one();
  const auto opened = opener.open(ssl::kContentApplicationData, records[0]);
  check(opened.has_value() && *opened == ping, "record open(seal(ping))");
  m["ssl.record_seal_ns"] = median_ns(fx.samples(), n, seal_one);
  // Open every record sealed above, in sequence order.
  std::size_t next = 1;
  bool all_ok = true;
  m["ssl.record_open_ns"] = median_ns(fx.samples(), n, [&] {
    const auto pt = opener.open(ssl::kContentApplicationData, records[next++]);
    all_ok = all_ok && pt.has_value() && *pt == ping;
  });
  check(all_ok, "record open of every sealed record");
}

void probe_cache(Fixture& fx, Metrics& m) {
  // The server's geometry (DriverConfig defaults).
  const ssl::SessionCacheConfig cfg{.capacity = 4096, .shards = 16};
  // A quarter of capacity: no shard fills, so every get() must hit.
  std::vector<ssl::SessionId> ids(cfg.capacity / 4);
  std::vector<ssl::MasterSecret> masters(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    fx.rng.fill_bytes(ids[i].data(), ids[i].size());
    fx.rng.fill_bytes(masters[i].data(), masters[i].size());
  }
  std::vector<double> put_ns;
  std::vector<double> get_ns;
  bool all_hit = true;
  for (std::size_t s = 0; s < fx.samples(); ++s) {
    ssl::SessionCache cache(cfg);
    Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < ids.size(); ++i) cache.put(ids[i], masters[i]);
    put_ns.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
        static_cast<double>(ids.size()));
    t0 = Clock::now();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const auto got = cache.get(ids[i]);
      all_hit = all_hit && got.has_value() && *got == masters[i];
    }
    get_ns.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
        static_cast<double>(ids.size()));
  }
  check(all_hit, "session cache get(put(id)) hits");
  m["ssl.cache_put_ns"] = median_of(put_ns);
  m["ssl.cache_get_ns"] = median_of(get_ns);
}

/// One in-memory handshake + echo between a ScriptedClient and a
/// ServerConnection. Returns the time spent inside server calls, in
/// microseconds; the private op is resolved on the scalar reference
/// outside the timed region.
double server_handshake_us(Fixture& fx, ssl::SessionCache& cache,
                           std::optional<ssl::ResumableSession> resume,
                           std::optional<ssl::ResumableSession>* banked,
                           std::uint64_t seed) {
  ssl::async::ScriptedClient client(fx.pub, seed, resume);
  ssl::async::ServerConnection server(fx.eng, seed + 1, &cache, nullptr,
                                      nullptr);
  client.start();
  Clock::duration in_server{};
  const auto timed = [&](auto&& fn) {
    const Clock::time_point t0 = Clock::now();
    fn();
    in_server += Clock::now() - t0;
  };
  for (int step = 0; step < 16 && !client.done() && !client.failed();
       ++step) {
    const std::vector<std::uint8_t> up = client.take_output();
    timed([&] { server.on_input(up); });
    if (server.has_pending_op()) {
      std::optional<ssl::async::PendingOp> op;
      timed([&] { op = server.take_pending_op(); });
      check(op->kind == ssl::async::PendingOp::Kind::kPrivateOp,
            "handshake parks on the private op");
      const BigInt x = BigInt::from_bytes_be(op->payload);
      auto premaster = rsa::rsaes_pkcs1_v15_unpad(
          fx.ref.private_op(x).to_bytes_be(fx.k));
      timed([&] { server.on_crypto_result(std::move(premaster)); });
    }
    std::vector<std::uint8_t> down;
    timed([&] { down = server.take_output(); });
    client.on_server_bytes(down);
  }
  // The client's close frame.
  const std::vector<std::uint8_t> up = client.take_output();
  timed([&] { server.on_input(up); });
  check(client.done() && !client.failed(), "client verified Finished + echo");
  check(server.state() == ssl::async::ConnState::kClosed && !server.failed(),
        "server closed cleanly");
  check(client.resumed() == resume.has_value(), "resumption as offered");
  if (banked != nullptr) *banked = client.resumable();
  return std::chrono::duration<double, std::micro>(in_server).count();
}

void probe_handshake(Fixture& fx, Metrics& m) {
  ssl::SessionCache cache(
      ssl::SessionCacheConfig{.capacity = 4096, .shards = 16});
  std::optional<ssl::ResumableSession> banked;
  std::vector<double> full;
  std::vector<double> resumed;
  const std::size_t n = fx.quick ? 8 : 64;
  std::uint64_t seed = 1;
  for (std::size_t i = 0; i < n; ++i) {
    full.push_back(server_handshake_us(fx, cache, std::nullopt, &banked,
                                       seed += 2));
    resumed.push_back(
        server_handshake_us(fx, cache, banked, nullptr, seed += 2));
  }
  m["ssl.server_full_hs_us"] = median_of(full);
  m["ssl.server_resumed_hs_us"] = median_of(resumed);
}

}  // namespace

int main(int argc, char** argv) {
  Fixture fx;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      fx.quick = true;
    } else {
      std::fprintf(stderr, "usage: phissl_e2e_layers [--quick]\n");
      return 2;
    }
  }
  Metrics m;
  try {
    probe_mont(fx, m);
    probe_rsa(fx, m);
#ifdef PHISSL_E2E_LIBCRYPTO
    probe_libcrypto(fx, m);
#else
    std::fprintf(stderr,
                 "note: built without OpenSSL; rsa.ref_libcrypto_private_us "
                 "omitted\n");
#endif
    probe_dh(fx, m);
    probe_service(fx, m);
    probe_record(fx, m);
    probe_cache(fx, m);
    probe_handshake(fx, m);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "phissl_e2e_layers: %s\n", e.what());
    return 1;
  }
  std::printf("{");
  const char* sep = "";
  for (const auto& [name, value] : m) {
    std::printf("%s\"%s\": %.10g", sep, name.c_str(), value);
    sep = ", ";
  }
  std::printf("}\n");
  return 0;
}
