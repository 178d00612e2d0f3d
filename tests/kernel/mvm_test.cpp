// Matrix-vector kernel: bit-exactness, padding, strip decomposition.
#include "kernel/mvm.hpp"

#include <gtest/gtest.h>

#include <random>

#include "fp/ops.hpp"

namespace flopsim::kernel {
namespace {

PeConfig fast_cfg() {
  PeConfig c;
  c.adder_stages = 4;
  c.mult_stages = 3;  // PL = 7
  return c;
}

Matrix random_matrix(int n, fp::FpFormat fmt, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<double> v(static_cast<std::size_t>(n) * n);
  for (double& x : v) {
    x = (static_cast<double>(rng() % 4000) - 2000.0) / 64.0;
  }
  return matrix_from_doubles(v, n, fmt);
}

std::vector<fp::u64> random_vector(int n, fp::FpFormat fmt,
                                   std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<fp::u64> v(static_cast<std::size_t>(n));
  fp::FpEnv env = fp::FpEnv::paper();
  for (auto& x : v) {
    x = fp::from_double((static_cast<double>(rng() % 400) - 200.0) / 16.0,
                        fmt, env)
            .bits;
  }
  return v;
}

// The name is held inline, not as a pointer: gtest prints the raw bytes of
// the param into the test id, and a pointer would make the id depend on
// where the binary happens to be loaded.
struct MvmCase {
  int n;
  int p;
  char name[8];
};

class MvmTest : public ::testing::TestWithParam<MvmCase> {};

TEST_P(MvmTest, BitExactAgainstReference) {
  const auto [n, p, name] = GetParam();
  const PeConfig cfg = fast_cfg();
  LinearArrayMvm array(n, p, cfg);
  const Matrix a = random_matrix(n, cfg.fmt, 300 + n);
  const auto x = random_vector(n, cfg.fmt, 400 + p);
  const MvmRun run = array.run(a, x);
  EXPECT_EQ(run.y, reference_mvm(a, x, cfg.fmt, cfg.rounding));
  EXPECT_EQ(run.hazards, 0);
}

TEST_P(MvmTest, CycleCountFormula) {
  const auto [n, p, name] = GetParam();
  const PeConfig cfg = fast_cfg();
  LinearArrayMvm array(n, p, cfg);
  const Matrix a = random_matrix(n, cfg.fmt, 1);
  const auto x = random_vector(n, cfg.fmt, 2);
  const MvmRun run = array.run(a, x);
  const int r = n / p;
  const int r_eff = std::max(r, array.pl());
  EXPECT_EQ(run.r_eff, r_eff);
  EXPECT_EQ(run.cycles,
            static_cast<long>(n) * r_eff + (p - 1) + array.pl() + 1);
  EXPECT_EQ(run.padded_issues,
            static_cast<long>(p) * n * (r_eff - r));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MvmTest,
    ::testing::Values(MvmCase{8, 1, "n8_p1"}, MvmCase{8, 2, "n8_p2"},
                      MvmCase{8, 8, "n8_p8"}, MvmCase{16, 2, "n16_p2"},
                      MvmCase{16, 16, "n16_p16"}, MvmCase{12, 3, "n12_p3"}),
    [](const ::testing::TestParamInfo<MvmCase>& info) {
      return info.param.name;
    });

TEST(Mvm, WideStripAvoidsPadding) {
  // r = n/p >= PL: no padded issues.
  const PeConfig cfg = fast_cfg();  // PL = 7
  LinearArrayMvm array(16, 2, cfg);  // r = 8 >= 7
  const Matrix a = random_matrix(16, cfg.fmt, 9);
  const auto x = random_vector(16, cfg.fmt, 10);
  const MvmRun run = array.run(a, x);
  EXPECT_EQ(run.padded_issues, 0);
}

TEST(Mvm, NarrowStripPads) {
  const PeConfig cfg = fast_cfg();   // PL = 7
  LinearArrayMvm array(16, 16, cfg);  // r = 1 << PL
  const Matrix a = random_matrix(16, cfg.fmt, 11);
  const auto x = random_vector(16, cfg.fmt, 12);
  const MvmRun run = array.run(a, x);
  EXPECT_GT(run.padded_issues, 0);
  EXPECT_EQ(run.y, reference_mvm(a, x, cfg.fmt, cfg.rounding));
}

TEST(Mvm, MorePEsFewerCyclesOnLargeProblems) {
  // Parallel speedup once strips stay above the padding threshold.
  const PeConfig cfg = fast_cfg();
  const int n = 56;
  const Matrix a = random_matrix(n, cfg.fmt, 13);
  const auto x = random_vector(n, cfg.fmt, 14);
  LinearArrayMvm a1(n, 1, cfg);
  LinearArrayMvm a8(n, 8, cfg);
  const long c1 = a1.run(a, x).cycles;
  const long c8 = a8.run(a, x).cycles;
  EXPECT_GT(c1, 6 * c8);
}

TEST(Mvm, Validation) {
  const PeConfig cfg = fast_cfg();
  EXPECT_THROW(LinearArrayMvm(8, 3, cfg), std::invalid_argument);
  EXPECT_THROW(LinearArrayMvm(0, 1, cfg), std::invalid_argument);
  LinearArrayMvm array(8, 2, cfg);
  const Matrix a = random_matrix(8, cfg.fmt, 1);
  EXPECT_THROW(array.run(a, std::vector<fp::u64>(4, 0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace flopsim::kernel
