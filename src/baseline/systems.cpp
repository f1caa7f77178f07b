#include "baseline/systems.hpp"

#include <stdexcept>

namespace phissl::baseline {

const char* name(System s) {
  switch (s) {
    case System::kPhiOpenSSL:
      return "PhiOpenSSL";
    case System::kMpssLibcrypto:
      return "MPSS-libcrypto";
    case System::kOpensslDefault:
      return "OpenSSL-default";
  }
  return "?";
}

rsa::EngineOptions options_for(System s) {
  rsa::EngineOptions opts;
  switch (s) {
    case System::kPhiOpenSSL:
      opts.kernel = rsa::Backend::kKncVec;
      opts.schedule = rsa::Schedule::kFixedWindow;
      break;
    case System::kMpssLibcrypto:
      opts.kernel = rsa::Backend::kScalar32;
      opts.schedule = rsa::Schedule::kSlidingWindow;
      break;
    case System::kOpensslDefault:
      opts.kernel = rsa::Backend::kScalar64;
      opts.schedule = rsa::Schedule::kSlidingWindow;
      break;
    default:
      throw std::invalid_argument("options_for: unknown system");
  }
  opts.use_crt = true;  // all three libraries use CRT for private ops
  return opts;
}

rsa::Engine make_engine(System s, const rsa::PrivateKey& key) {
  return rsa::Engine(key, options_for(s));
}

rsa::Engine make_public_engine(System s, const rsa::PublicKey& key) {
  return rsa::Engine(key, options_for(s));
}

}  // namespace phissl::baseline
