// key_agreement: finite-field DH key agreement (RFC 3526 group 14) on the
// library's vectorized Montgomery kernel — the exponentiation the DHE-RSA
// handshake runs for its key exchange.
//
//   ./key_agreement
#include <cstdio>

#include "dh/dh.hpp"
#include "util/random.hpp"
#include "util/timing.hpp"

int main() {
  using namespace phissl;
  util::Rng rng(31337);

  util::Stopwatch sw;
  const dh::Dh group(dh::rfc3526_group14());
  const dh::KeyPair alice = group.generate_keypair(rng);
  const dh::KeyPair bob = group.generate_keypair(rng);
  const auto s1 = group.compute_shared(alice.x, bob.y);
  const auto s2 = group.compute_shared(bob.x, alice.y);
  std::printf("DH-2048 (MODP group 14): agreement %s  [%.1f ms]\n",
              s1 == s2 ? "OK" : "FAILED", sw.elapsed_s() * 1e3);
  return 0;
}
