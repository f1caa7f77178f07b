#include "rsa/backend.hpp"

#include <stdexcept>

namespace phissl::rsa {

const char* to_string(Backend b) {
  switch (b) {
    case Backend::kScalar32:
      return "scalar32";
    case Backend::kScalar64:
      return "scalar64";
    case Backend::kKncVec:
      return "knc_vec";
    case Backend::kIfma52:
      return "ifma52";
    case Backend::kIfma52Portable:
      return "ifma52-portable";
  }
  return "?";
}

std::optional<Backend> backend_from_string(std::string_view name) {
  for (const Backend b : kAllBackends) {
    if (name == to_string(b)) return b;
  }
  return std::nullopt;
}

bool has_batch_form(Backend b) {
  return b != Backend::kScalar32 && b != Backend::kScalar64;
}

AnyCtx make_ctx(Backend b, const bigint::BigInt& modulus,
                unsigned digit_bits) {
  switch (b) {
    case Backend::kScalar32:
      return AnyCtx{std::in_place_type<mont::MontCtx32>, modulus};
    case Backend::kScalar64:
      return AnyCtx{std::in_place_type<mont::MontCtx64>, modulus};
    case Backend::kKncVec:
      return AnyCtx{std::in_place_type<mont::VectorMontCtx>, modulus,
                    digit_bits};
    case Backend::kIfma52:
    case Backend::kIfma52Portable:
      return AnyCtx{std::in_place_type<mont::IfmaMontCtx>, modulus,
                    b == Backend::kIfma52Portable};
  }
  throw std::logic_error("rsa::make_ctx: unknown backend");
}

}  // namespace phissl::rsa
