// SEU campaign analysis: depth-vs-vulnerability trend, the reliability-
// constrained min/max/opt selection, and the kernel-level campaign.
#include <gtest/gtest.h>

#include <vector>

#include "analysis/seu.hpp"
#include "analysis/sweep.hpp"

namespace flopsim::analysis {
namespace {

TEST(SeuCampaign, UnitCampaignIsDeterministic) {
  units::UnitConfig cfg;
  cfg.stages = 5;
  SeuCampaignConfig camp;
  camp.faults = 24;
  const UnitSeuResult a = run_unit_campaign(
      units::UnitKind::kAdder, fp::FpFormat::binary32(), cfg, camp);
  const UnitSeuResult b = run_unit_campaign(
      units::UnitKind::kAdder, fp::FpFormat::binary32(), cfg, camp);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.masked, b.masked);
  EXPECT_EQ(a.detected, b.detected);
  EXPECT_EQ(a.corrected, b.corrected);
  EXPECT_EQ(a.silent, b.silent);
  EXPECT_EQ(a.corrupted, b.corrupted);
  EXPECT_EQ(a.occupied_bits, b.occupied_bits);

  EXPECT_EQ(a.injected, 24);
  EXPECT_EQ(a.masked + a.detected + a.silent + a.corrected, a.injected);
}

// Deeper pipelines expose more state: FF count grows monotonically with
// depth and the silent-corruption FIT at the deepest point exceeds the
// combinational (1-stage) point. Per-depth AVF itself is a noisy Monte
// Carlo estimate, so the trend is asserted on the physical exposure.
TEST(SeuCampaign, DepthSweepShowsGrowingExposure) {
  units::UnitConfig probe_cfg;
  const units::FpUnit probe(units::UnitKind::kAdder, fp::FpFormat::binary32(),
                            probe_cfg);
  const int max = probe.max_stages();
  const std::vector<int> depths{1, max / 3, (2 * max) / 3, max};

  SeuCampaignConfig camp;
  camp.faults = 64;
  const std::vector<SeuDepthPoint> points = seu_depth_sweep(
      units::UnitKind::kAdder, fp::FpFormat::binary32(), depths, camp).points;

  ASSERT_EQ(points.size(), depths.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].stages, depths[i]);
    EXPECT_GE(points[i].avf, 0.0);
    EXPECT_LE(points[i].avf, 1.0);
    EXPECT_GT(points[i].occupied_bits, 0);
    EXPECT_GE(points[i].tmr_area_x, 3.0);
    if (i > 0) {
      EXPECT_GT(points[i].pipeline_ffs, points[i - 1].pipeline_ffs);
      EXPECT_GE(points[i].occupied_bits, points[i - 1].occupied_bits);
    }
  }
  EXPECT_GT(points.back().sdc_fit, points.front().sdc_fit);
}

TEST(SeuCampaign, ReliableSelectionHonorsTheFitCap) {
  const SweepResult sweep =
      sweep_unit(units::UnitKind::kAdder, fp::FpFormat::binary64());
  const SeuRateModel rate;

  // A huge cap changes nothing.
  const ReliableSelection loose =
      select_min_max_opt_reliable(sweep, 1e9, rate, 1.0);
  EXPECT_TRUE(loose.feasible);
  EXPECT_EQ(loose.opt.stages, loose.unconstrained.opt.stages);

  // A cap below the unconstrained optimum forces a shallower design.
  const double opt_fit =
      rate.fit(loose.unconstrained.opt.pipeline_ffs, 1.0);
  const ReliableSelection tight =
      select_min_max_opt_reliable(sweep, opt_fit * 0.6, rate, 1.0);
  EXPECT_TRUE(tight.feasible);
  EXPECT_LT(tight.opt.stages, loose.unconstrained.opt.stages);
  EXPECT_LE(tight.fit_at_opt, opt_fit * 0.6);
  // Still the best MHz/slice among the qualifying points.
  for (const DesignPoint& p : sweep.points) {
    if (rate.fit(p.pipeline_ffs, 1.0) <= opt_fit * 0.6) {
      EXPECT_LE(p.freq_per_area, tight.opt.freq_per_area);
    }
  }

  // An impossible cap falls back to the least-vulnerable point.
  const ReliableSelection impossible =
      select_min_max_opt_reliable(sweep, 0.0, rate, 1.0);
  EXPECT_FALSE(impossible.feasible);
  for (const DesignPoint& p : sweep.points) {
    EXPECT_LE(impossible.opt.pipeline_ffs, p.pipeline_ffs);
  }
}

// When no point satisfies the cap, both overloads must fall back to the
// point with the minimum modelled FIT — the very quantity the cap is
// expressed in — and report feasible = false. (The two overloads model
// different FITs: latch-only versus latch + CRAM, where the CRAM term
// scales with area footprint rather than FF count.)
TEST(SeuCampaign, InfeasibleCapFallsBackToMinimumModelledFit) {
  const SweepResult sweep =
      sweep_unit(units::UnitKind::kAdder, fp::FpFormat::binary32());
  const SeuRateModel rate;
  const double derate = 0.5;

  // Latch-only overload.
  const ReliableSelection latch =
      select_min_max_opt_reliable(sweep, 0.0, rate, derate);
  EXPECT_FALSE(latch.feasible);
  for (const DesignPoint& p : sweep.points) {
    EXPECT_LE(latch.fit_at_opt, rate.fit(p.pipeline_ffs, derate));
  }
  EXPECT_DOUBLE_EQ(latch.fit_at_opt,
                   rate.fit(latch.opt.pipeline_ffs, derate));

  // CRAM-aware overload: the fallback minimizes the *total* modelled FIT.
  CramRateModel cram;  // scrubbing disabled: mission/2 exposure, term > 0
  const ReliableSelection total =
      select_min_max_opt_reliable(sweep, 0.0, rate, derate, cram);
  EXPECT_FALSE(total.feasible);
  EXPECT_GT(total.cram_fit_at_opt, 0.0);
  for (const DesignPoint& p : sweep.points) {
    EXPECT_LE(total.fit_at_opt,
              rate.fit(p.pipeline_ffs, derate) + cram.fit(p.area));
  }
  EXPECT_DOUBLE_EQ(total.fit_at_opt,
                   rate.fit(total.opt.pipeline_ffs, derate) +
                       cram.fit(total.opt.area));
  EXPECT_DOUBLE_EQ(total.cram_fit_at_opt, cram.fit(total.opt.area));
}

TEST(SeuCampaign, MatmulCampaignIsDeterministicAndFindsSdc) {
  kernel::PeConfig cfg;
  cfg.adder_stages = 2;
  cfg.mult_stages = 2;
  MatmulSeuConfig camp;
  camp.faults = 24;
  const MatmulSeuResult a = run_matmul_campaign(cfg, camp);
  const MatmulSeuResult b = run_matmul_campaign(cfg, camp);

  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.masked, b.masked);
  EXPECT_EQ(a.silent, b.silent);

  EXPECT_GT(a.injected, 0);
  EXPECT_EQ(a.masked + a.silent, a.injected);
  // The bare kernel has no detection hardware: some upsets must land in
  // the result as silent corruptions.
  EXPECT_GT(a.silent, 0);
  EXPECT_GT(a.sdc_fraction(), 0.0);
  EXPECT_LE(a.sdc_fraction(), 1.0);
}

// SECDED accumulators: every single-bit accumulator upset is repaired on
// the next read, so accumulator SDC must drop to exactly zero while the
// corrector's repair count proves the upsets actually landed.
TEST(SeuCampaign, EccEliminatesAccumulatorSdc) {
  kernel::PeConfig cfg;
  cfg.adder_stages = 2;
  cfg.mult_stages = 2;
  MatmulSeuConfig camp;
  camp.faults = 24;
  camp.accumulator_fraction = 1.0;  // aim everything at the BRAM bank

  const MatmulSeuResult bare = run_matmul_campaign(cfg, camp);
  EXPECT_EQ(bare.acc_injected, bare.injected);
  EXPECT_GT(bare.acc_silent, 0) << "unprotected bank must show SDC";

  camp.scheme = fault::Scheme::kEcc;
  const MatmulSeuResult ecc = run_matmul_campaign(cfg, camp);
  EXPECT_EQ(ecc.injected, bare.injected) << "same campaign either way";
  EXPECT_EQ(ecc.acc_silent, 0);
  EXPECT_EQ(ecc.silent, 0);
  EXPECT_GT(ecc.corrected, 0) << "upsets landed and were repaired";
  EXPECT_EQ(ecc.masked + ecc.corrected + ecc.detected + ecc.silent,
            ecc.injected);

  // Determinism holds with the corrector in the loop.
  const MatmulSeuResult again = run_matmul_campaign(cfg, camp);
  EXPECT_EQ(again.corrected, ecc.corrected);
  EXPECT_EQ(again.masked, ecc.masked);
}

// Persistent configuration upsets ride on top of the legacy campaign; a
// scrub period bounds how long they corrupt the stream. Deep pipelines so
// enough cross-stage lanes are architecturally live for a stuck route to
// reach the result (at 2+2 nearly every signal dies inside its own stage).
TEST(SeuCampaign, ConfigFaultsAreDeterministicAndScrubBounded) {
  kernel::PeConfig cfg;
  cfg.adder_stages = 8;
  cfg.mult_stages = 5;
  MatmulSeuConfig camp;
  camp.faults = 16;
  camp.config_fraction = 0.5;

  const MatmulSeuResult a = run_matmul_campaign(cfg, camp);
  const MatmulSeuResult b = run_matmul_campaign(cfg, camp);
  EXPECT_EQ(a.config_injected, 8);
  EXPECT_EQ(b.config_injected, a.config_injected);
  EXPECT_EQ(b.config_silent, a.config_silent);
  EXPECT_EQ(b.silent, a.silent);
  EXPECT_GT(a.config_silent, 0)
      << "an unscrubbed stuck datapath must corrupt the result";
  EXPECT_EQ(a.masked + a.corrected + a.detected + a.silent, a.injected);

  // Config faults append to the legacy draws: the base campaign's verdicts
  // are untouched.
  MatmulSeuConfig legacy = camp;
  legacy.config_fraction = 0.0;
  const MatmulSeuResult base = run_matmul_campaign(cfg, legacy);
  EXPECT_EQ(a.injected, base.injected + a.config_injected);
  EXPECT_EQ(a.acc_silent, base.acc_silent);
  EXPECT_EQ(a.latch_silent, base.latch_silent);

  // An aggressive scrub period cannot increase config SDC.
  MatmulSeuConfig scrubbed = camp;
  scrubbed.scrub_period_cycles = 8;
  const MatmulSeuResult s = run_matmul_campaign(cfg, scrubbed);
  EXPECT_EQ(s.config_injected, a.config_injected);
  EXPECT_LE(s.config_silent, a.config_silent);
}

// The CRAM-aware selection: with the configuration term zeroed it matches
// the latch-only overload, and shrinking the scrub period monotonically
// shrinks the CRAM FIT it reports.
TEST(SeuCampaign, CramSelectionRespondsToScrubPeriod) {
  const SweepResult sweep =
      sweep_unit(units::UnitKind::kMultiplier, fp::FpFormat::binary64());
  const SeuRateModel rate;
  const Selection sel = select_min_max_opt(sweep);
  const double cap = rate.fit(sel.opt.pipeline_ffs, 1.0) * 0.6;

  CramRateModel zero;
  zero.fit_per_mbit = 0.0;
  const ReliableSelection with_zero =
      select_min_max_opt_reliable(sweep, cap, rate, 1.0, zero);
  const ReliableSelection latch_only =
      select_min_max_opt_reliable(sweep, cap, rate, 1.0);
  EXPECT_EQ(with_zero.opt.stages, latch_only.opt.stages);
  EXPECT_EQ(with_zero.feasible, latch_only.feasible);
  EXPECT_DOUBLE_EQ(with_zero.cram_fit_at_opt, 0.0);

  double prev_cram = 1e300;
  bool was_feasible = false;
  for (const double period : {0.0, 0.01, 1e-3, 1e-4, 1e-5}) {
    CramRateModel cram;
    cram.scrub.period_s = period;
    cram.scrub.duty = 0.1;
    const ReliableSelection rs =
        select_min_max_opt_reliable(sweep, cap, rate, 1.0, cram);
    EXPECT_GE(rs.fit_at_opt, rs.cram_fit_at_opt);
    if (rs.feasible) {
      EXPECT_LE(rs.fit_at_opt, cap);
    }
    // The per-point CRAM term shrinks with the period, so a feasible
    // selection can never become infeasible under faster scrubbing.
    EXPECT_GE(static_cast<int>(rs.feasible), static_cast<int>(was_feasible))
        << "feasibility lost at period " << period;
    // At the unconstrained opt's footprint the CRAM FIT is monotone too.
    const double opt_cram = cram.fit(sel.opt.area);
    EXPECT_LE(opt_cram, prev_cram + 1e-9);
    prev_cram = opt_cram;
    was_feasible = rs.feasible;
  }
  EXPECT_TRUE(was_feasible)
      << "aggressive scrubbing must re-admit some design under the cap";
}

}  // namespace
}  // namespace flopsim::analysis
