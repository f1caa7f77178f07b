#include "mont/ifma_pair.hpp"

namespace phissl::mont {

void IfmaPairCtx::pack(const bigint::BigInt& xp, const bigint::BigInt& xq,
                       Rep& out) const {
  const bigint::BigInt* xs[] = {&xp, &xq};
  IfmaAmmCtx::pack(xs, out);
}

void IfmaPairCtx::to_mont(const bigint::BigInt& xp, const bigint::BigInt& xq,
                          Rep& out, Workspace& ws) const {
  const bigint::BigInt* xs[] = {&xp, &xq};
  IfmaAmmCtx::to_mont(xs, out, ws);
}

void IfmaPairCtx::from_mont(const Rep& a, bigint::BigInt& out_p,
                            bigint::BigInt& out_q, Workspace& ws) const {
  bigint::BigInt* outs[] = {&out_p, &out_q};
  IfmaAmmCtx::from_mont(a, outs, ws);
}

}  // namespace phissl::mont
