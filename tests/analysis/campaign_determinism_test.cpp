// The parallel campaign engine's bit-identity contract, locked against
// tallies captured from the pre-parallel serial implementation: for a
// pinned seed every thread count — 1 (the inline serial path), 2, 8 —
// must reproduce those numbers exactly. Any scheduling dependence (work
// stealing, arrival-order reduction, shared-RNG draws) breaks these.
#include <gtest/gtest.h>

#include <vector>

#include "analysis/seu.hpp"

namespace flopsim::analysis {
namespace {

const std::vector<int> kThreadCounts{1, 2, 8};

struct UnitGolden {
  int injected, masked, detected, corrected, silent, corrupted;
  long occupied;
  int ffs;
};

void expect_unit_golden(units::UnitKind kind, fp::FpFormat fmt, int stages,
                        fault::Scheme scheme, int faults,
                        const UnitGolden& g) {
  units::UnitConfig cfg;
  cfg.stages = stages;
  for (const int threads : kThreadCounts) {
    SeuCampaignConfig camp;
    camp.faults = faults;
    camp.scheme = scheme;
    camp.threads = threads;
    const UnitSeuResult r = run_unit_campaign(kind, fmt, cfg, camp);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(r.injected, g.injected);
    EXPECT_EQ(r.masked, g.masked);
    EXPECT_EQ(r.detected, g.detected);
    EXPECT_EQ(r.corrected, g.corrected);
    EXPECT_EQ(r.silent, g.silent);
    EXPECT_EQ(r.corrupted, g.corrupted);
    EXPECT_EQ(r.occupied_bits, g.occupied);
    EXPECT_EQ(r.pipeline_ffs, g.ffs);
  }
}

TEST(CampaignDeterminism, UnitCampaignMatchesSerialGolden) {
  // FF counts re-pinned after the absint sandwich corrected live_bits
  // declarations (fpadd mid-ripple under-declaration, fpmul tightening);
  // the tallies themselves are unchanged — fault sites are drawn from
  // occupied bits, not the declared widths.
  expect_unit_golden(units::UnitKind::kAdder, fp::FpFormat::binary32(), 5,
                     fault::Scheme::kNone, 24,
                     {24, 21, 0, 0, 3, 3, 813, 289});
  expect_unit_golden(units::UnitKind::kAdder, fp::FpFormat::binary32(), 5,
                     fault::Scheme::kTmr, 24,
                     {24, 21, 0, 3, 0, 3, 813, 289});
  expect_unit_golden(units::UnitKind::kMultiplier, fp::FpFormat::binary64(),
                     6, fault::Scheme::kParity, 24,
                     {24, 0, 24, 0, 0, 2, 2904, 546});
}

struct MatmulGolden {
  int injected, masked, detected, corrected, silent;
  int acc_injected, acc_silent;
  int latch_injected, latch_silent;
  int config_injected, config_silent;
};

void expect_matmul_golden(int adder_stages, int mult_stages, int faults,
                          double config_fraction, long scrub,
                          fault::Scheme scheme, const MatmulGolden& g) {
  kernel::PeConfig cfg;
  cfg.adder_stages = adder_stages;
  cfg.mult_stages = mult_stages;
  for (const int threads : kThreadCounts) {
    MatmulSeuConfig camp;
    camp.faults = faults;
    camp.config_fraction = config_fraction;
    camp.scrub_period_cycles = scrub;
    camp.scheme = scheme;
    camp.threads = threads;
    const MatmulSeuResult r = run_matmul_campaign(cfg, camp);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(r.injected, g.injected);
    EXPECT_EQ(r.masked, g.masked);
    EXPECT_EQ(r.detected, g.detected);
    EXPECT_EQ(r.corrected, g.corrected);
    EXPECT_EQ(r.silent, g.silent);
    EXPECT_EQ(r.acc_injected, g.acc_injected);
    EXPECT_EQ(r.acc_silent, g.acc_silent);
    EXPECT_EQ(r.latch_injected, g.latch_injected);
    EXPECT_EQ(r.latch_silent, g.latch_silent);
    EXPECT_EQ(r.config_injected, g.config_injected);
    EXPECT_EQ(r.config_silent, g.config_silent);
  }
}

TEST(CampaignDeterminism, MatmulCampaignMatchesSerialGolden) {
  expect_matmul_golden(2, 2, 24, 0.0, 0, fault::Scheme::kNone,
                       {24, 15, 0, 0, 9, 12, 9, 12, 0, 0, 0});
  expect_matmul_golden(8, 5, 16, 0.5, 0, fault::Scheme::kNone,
                       {24, 21, 0, 0, 3, 8, 1, 8, 0, 8, 2});
  expect_matmul_golden(8, 5, 16, 0.25, 16, fault::Scheme::kEcc,
                       {20, 18, 0, 1, 1, 8, 0, 8, 0, 4, 1});
}

TEST(CampaignDeterminism, DepthSweepMatchesSerialGolden) {
  const std::vector<int> depths{1, 4, 9};
  // FF counts (and the FIT that scales with them) re-pinned after the
  // absint sandwich corrected live_bits declarations; occupancy, AVF, and
  // all tallies are unchanged at every depth.
  const std::vector<int> golden_ffs{38, 205, 481};
  const std::vector<long> golden_occ{192, 662, 1453};
  const std::vector<double> golden_avf{0.125, 0.0, 0.3125};
  const std::vector<double> golden_fit{0.0019000000000000002, 0.0,
                                       0.060124999999999998};
  for (const int threads : kThreadCounts) {
    SeuCampaignConfig camp;
    camp.faults = 16;
    camp.threads = threads;
    const std::vector<SeuDepthPoint> pts = seu_depth_sweep(
        units::UnitKind::kAdder, fp::FpFormat::binary32(), depths, camp).points;
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ASSERT_EQ(pts.size(), depths.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      EXPECT_EQ(pts[i].stages, depths[i]);
      EXPECT_EQ(pts[i].pipeline_ffs, golden_ffs[i]);
      EXPECT_EQ(pts[i].occupied_bits, golden_occ[i]);
      // Doubles pinned exactly: the parallel sweep must be bit-identical,
      // not merely statistically equivalent.
      EXPECT_EQ(pts[i].avf, golden_avf[i]);
      EXPECT_EQ(pts[i].sdc_fit, golden_fit[i]);
    }
  }
}

// The auto path (threads = 0) must agree with the pinned counts too —
// whatever FLOPSIM_THREADS or hardware_concurrency resolves to.
TEST(CampaignDeterminism, AutoThreadCountAgreesWithSerial) {
  units::UnitConfig cfg;
  cfg.stages = 5;
  SeuCampaignConfig serial;
  serial.faults = 24;
  serial.threads = 1;
  SeuCampaignConfig auto_camp = serial;
  auto_camp.threads = 0;
  const UnitSeuResult a = run_unit_campaign(
      units::UnitKind::kAdder, fp::FpFormat::binary32(), cfg, serial);
  const UnitSeuResult b = run_unit_campaign(
      units::UnitKind::kAdder, fp::FpFormat::binary32(), cfg, auto_camp);
  EXPECT_EQ(a.masked, b.masked);
  EXPECT_EQ(a.detected, b.detected);
  EXPECT_EQ(a.corrected, b.corrected);
  EXPECT_EQ(a.silent, b.silent);
  EXPECT_EQ(a.corrupted, b.corrupted);
}

}  // namespace
}  // namespace flopsim::analysis
