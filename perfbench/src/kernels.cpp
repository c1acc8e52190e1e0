// Field and codec kernel replay at the FM coin's n = 64 shapes, checked
// against a reference written here from the definitions alone: naive
// unsigned __int128 arithmetic mod p for the field, and the masked vector
// format of support/bytes.h for the codec.
//
// Shapes come from the code (coin/fm_coin.cpp, coin/gvss.cpp,
// field/bivariate.cpp) at the registry's n = 64 world:
//   eval_many   one dealt row, f + 1 coefficients, at all n node points
//               (recv_deal's single evaluation pass per dealing);
//   dot         f + 1 Lagrange weights against f + 1 shares (recover);
//   addmul_vec  one coefficient row of f + 1 (SymmetricBivariate::row_into);
//   batch_inv   the f + 1 recover-table denominators;
//   codec       masked_u64_vec of an n-entry vote/share vector with some
//               entries absent, at the field's value_bits.
#include <algorithm>
#include <cstdint>
#include <vector>

#include "coin/gvss.h"
#include "field/fp.h"
#include "harness/scenario.h"
#include "support/bytes.h"
#include "support/check.h"
#include "support/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

// Reference arithmetic mod p, straight from the definitions.
struct RefField {
  u64 p;
  u64 mul(u64 a, u64 b) const { return static_cast<u64>(u128{a} * b % p); }
  u64 add(u64 a, u64 b) const { return static_cast<u64>((u128{a} + b) % p); }
  u64 horner(const std::vector<u64>& c, u64 x) const {
    u64 acc = 0;
    for (std::size_t i = c.size(); i-- > 0;) acc = add(mul(acc, x), c[i]);
    return acc;
  }
};

// Encoded size of ByteWriter::masked_u64_vec per its format definition:
// ceil(len / 8) mask bytes, then the present values packed at value_bits.
std::size_t masked_len(const std::vector<u64>& data, u64 absent,
                       unsigned value_bits) {
  const auto present = static_cast<std::size_t>(
      std::count_if(data.begin(), data.end(), [&](u64 v) { return v != absent; }));
  return (data.size() + 7) / 8 + (present * value_bits + 7) / 8;
}

// Median over batches of the per-call time of fn, in microseconds.
template <class Fn>
double time_us(Fn&& fn) {
  constexpr int kBatches = 31;
  constexpr int kCalls = 400;
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    const u64 t0 = now_ns();
    for (int i = 0; i < kCalls; ++i) fn();
    per_call.push_back(static_cast<double>(now_ns() - t0) / kCalls / 1e3);
  }
  return median(per_call);
}

}  // namespace

void replay_kernels(const Options& opts, Report& report, bool timed) {
  const ssbft::ScenarioSpec* spec =
      ssbft::find_scenario("scaling-large/sync-fm/n64");
  SSBFT_REQUIRE(spec != nullptr);
  const std::size_t n = spec->world.n;
  const std::size_t width = std::size_t{spec->world.f} + 1;

  const ssbft::PrimeField F;
  const RefField ref{F.modulus()};
  ssbft::Rng rng(opts.seed ^ 0x6b65726e656c73ull);  // "kernels"
  auto random_vec = [&](std::size_t len, bool nonzero) {
    std::vector<u64> v(len);
    for (u64& x : v) x = nonzero ? F.uniform_nonzero(rng) : F.uniform(rng);
    return v;
  };
  const bool inject = opts.inject == "kernel";

  // eval_many: a dealt row at every node point.
  const std::vector<u64> coeffs = random_vec(width, false);
  std::vector<u64> points(n);
  for (std::size_t j = 0; j < n; ++j) {
    points[j] = ssbft::node_point(static_cast<ssbft::NodeId>(j));
  }
  std::vector<u64> evals(n);
  F.eval_many(coeffs.data(), width, points.data(), n, evals.data());
  if (inject) evals[n / 2] ^= 1;
  bool ok = true;
  for (std::size_t j = 0; j < n; ++j) ok &= evals[j] == ref.horner(coeffs, points[j]);
  report.check(ok, "field eval_many differs from the reference");

  // dot.
  const std::vector<u64> a = random_vec(width, false);
  const std::vector<u64> b = random_vec(width, false);
  u64 want = 0;
  for (std::size_t i = 0; i < width; ++i) want = ref.add(want, ref.mul(a[i], b[i]));
  report.check(F.dot(a.data(), b.data(), width) == want,
               "field dot differs from the reference");

  // addmul_vec.
  const u64 c = F.uniform(rng);
  std::vector<u64> dst = random_vec(width, false);
  std::vector<u64> dst_ref = dst;
  F.addmul_vec(dst.data(), a.data(), c, width);
  for (std::size_t i = 0; i < width; ++i) dst_ref[i] = ref.add(dst_ref[i], ref.mul(c, a[i]));
  report.check(dst == dst_ref, "field addmul_vec differs from the reference");

  // batch_inv: every output times its input must be 1.
  const std::vector<u64> denom = random_vec(width, true);
  std::vector<u64> inv = denom;
  std::vector<u64> scratch(width);
  F.batch_inv(inv.data(), width, scratch.data());
  ok = true;
  for (std::size_t i = 0; i < width; ++i) ok &= inv[i] < ref.p && ref.mul(inv[i], denom[i]) == 1;
  report.check(ok, "field batch_inv differs from the reference");

  // Masked codec: a quarter of the entries absent, as after lost rows.
  const u64 absent = F.modulus();
  const unsigned value_bits = F.value_bits();
  std::vector<u64> row = random_vec(n, false);
  for (std::size_t j = 0; j < n; ++j) {
    if (rng.next_below(4) == 0) row[j] = absent;
  }
  ssbft::ByteWriter writer;
  writer.masked_u64_vec(row.data(), n, absent, value_bits);
  report.check(writer.size() == masked_len(row, absent, value_bits),
               "codec encoded length differs from the format definition");
  std::vector<u64> decoded(n, 0);
  ssbft::ByteReader reader(writer.data());
  const bool decoded_ok =
      reader.masked_u64_vec_into(decoded.data(), n, absent, value_bits) &&
      reader.at_end();
  report.check(decoded_ok && decoded == row, "codec round trip differs");

  if (!timed) return;
  report.set("field.eval_many_us", time_us([&] {
               F.eval_many(coeffs.data(), width, points.data(), n, evals.data());
             }), "us");
  volatile u64 sink = 0;
  report.set("field.dot_us", time_us([&] {
               sink = sink + F.dot(a.data(), b.data(), width);
             }), "us");
  report.set("field.addmul_vec_us", time_us([&] {
               F.addmul_vec(dst.data(), a.data(), c, width);
             }), "us");
  report.set("field.batch_inv_us", time_us([&] {
               // Inverting twice returns the input, so values stay nonzero.
               F.batch_inv(inv.data(), width, scratch.data());
             }), "us");
  report.set("codec.encode_us", time_us([&] {
               writer.clear();
               writer.masked_u64_vec(row.data(), n, absent, value_bits);
             }), "us");
  report.set("codec.decode_us", time_us([&] {
               ssbft::ByteReader r(writer.data());
               sink = sink + r.masked_u64_vec_into(decoded.data(), n, absent,
                                                   value_bits);
             }), "us");
}

}  // namespace perfbench
