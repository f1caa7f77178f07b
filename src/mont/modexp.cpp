// The constant-time window gathers for residues of 64-bit words: see
// modexp.hpp.
//
// phissl:ct-kernel — tools/phissl_lint.py bans raw index extraction here.
#include "mont/modexp.hpp"

#include "mont/ifma_kernels.hpp"
#include "util/cpu.hpp"

namespace phissl::mont {

namespace {

// The register gather needs AVX-512F; it lives in the IFMA translation
// unit, so it runs where that unit's kernels may (IFMA implies F).
bool vector_gather() {
  static const bool on = ifma::compiled() && util::cpu_features().avx512ifma;
  return on;
}

}  // namespace

void ct_table_select(const std::vector<std::uint64_t>* table,
                     std::size_t count, std::uint32_t idx,
                     std::vector<std::uint64_t>& out) {
  ct_table_select_split(table, count, idx, idx, 0, out);
}

void ct_table_select_split(const std::vector<std::uint64_t>* table,
                           std::size_t count, std::uint32_t idx_lo,
                           std::uint32_t idx_hi, std::size_t split,
                           std::vector<std::uint64_t>& out) {
  if (!vector_gather()) {
    ct_table_select_split<std::vector<std::uint64_t>, std::uint32_t>(
        table, count, idx_lo, idx_hi, split, out);
    return;
  }
  out.resize(table[0].size());  // every word is written below
  ifma::ct_gather(table, count, out.size(), idx_lo, idx_hi, split,
                  out.data());
}

}  // namespace phissl::mont
