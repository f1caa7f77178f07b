#include "mont/ifma_mont.hpp"

namespace phissl::mont {

namespace {

IfmaMontCtx::Workspace& tls_workspace() {
  static thread_local IfmaMontCtx::Workspace ws;
  return ws;
}

}  // namespace

void IfmaMontCtx::pack(const bigint::BigInt& x, Rep& out) const {
  const bigint::BigInt* xs[] = {&x};
  IfmaAmmCtx::pack(xs, out);
}

IfmaMontCtx::Rep IfmaMontCtx::to_mont(const bigint::BigInt& x) const {
  Rep out;
  to_mont(x, out, tls_workspace());
  publish_counts(tls_workspace());
  return out;
}

void IfmaMontCtx::to_mont(const bigint::BigInt& x, Rep& out,
                          Workspace& ws) const {
  const bigint::BigInt* xs[] = {&x};
  IfmaAmmCtx::to_mont(xs, out, ws);
}

bigint::BigInt IfmaMontCtx::from_mont(const Rep& a) const {
  bigint::BigInt out;
  from_mont(a, out, tls_workspace());
  return out;
}

void IfmaMontCtx::from_mont(const Rep& a, bigint::BigInt& out,
                            Workspace& ws) const {
  bigint::BigInt* outs[] = {&out};
  IfmaAmmCtx::from_mont(a, outs, ws);
}

void IfmaMontCtx::mul(const Rep& a, const Rep& b, Rep& out) const {
  mul(a, b, out, tls_workspace());
  publish_counts(tls_workspace());
}

void IfmaMontCtx::sqr(const Rep& a, Rep& out) const {
  sqr(a, out, tls_workspace());
  publish_counts(tls_workspace());
}

}  // namespace phissl::mont
