// The backend contract end to end: every campaign tally is bit-identical
// across the interpreted and compiled evaluators at any thread
// count, the backend never enters the checkpoint spec hash (a run
// interrupted under one backend resumes under another), and kAuto
// resolves through FLOPSIM_BACKEND. Matmul campaigns have no backend
// knob; CampaignDeterminism pins their tallies.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/seu.hpp"
#include "rtl/evaluator.hpp"

namespace flopsim::analysis {
namespace {

const rtl::EvalBackend kAllBackends[] = {rtl::EvalBackend::kInterpreted,
                                         rtl::EvalBackend::kCompiled};

std::string fresh_dir(const std::string& stem) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / stem).string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void expect_same_unit(const UnitSeuResult& a, const UnitSeuResult& b) {
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.masked, b.masked);
  EXPECT_EQ(a.detected, b.detected);
  EXPECT_EQ(a.corrected, b.corrected);
  EXPECT_EQ(a.silent, b.silent);
  EXPECT_EQ(a.corrupted, b.corrupted);
  EXPECT_EQ(a.occupied_bits, b.occupied_bits);
  EXPECT_EQ(a.pipeline_ffs, b.pipeline_ffs);
}

// Every hardening scheme classifies every fault identically on both
// backends, and the fast paths keep the engine's thread-count invariance.
TEST(BackendEquivalence, UnitTalliesMatchAcrossBackendsAndThreads) {
  const struct {
    units::UnitKind kind;
    fp::FpFormat fmt;
    int stages;
  } units_under_test[] = {
      {units::UnitKind::kAdder, fp::FpFormat::binary32(), 5},
      {units::UnitKind::kMultiplier, fp::FpFormat::binary64(), 6},
  };
  const fault::Scheme schemes[] = {fault::Scheme::kNone, fault::Scheme::kParity,
                                   fault::Scheme::kResidue,
                                   fault::Scheme::kDuplicate,
                                   fault::Scheme::kTmr};

  for (const auto& uut : units_under_test) {
    units::UnitConfig cfg;
    cfg.stages = uut.stages;
    for (const fault::Scheme scheme : schemes) {
      SeuCampaignConfig camp;
      camp.faults = 40;
      camp.scheme = scheme;
      camp.threads = 1;
      camp.backend = rtl::EvalBackend::kInterpreted;
      const UnitSeuResult baseline =
          run_unit_campaign(uut.kind, uut.fmt, cfg, camp);
      EXPECT_EQ(baseline.injected, 40);

      for (const rtl::EvalBackend backend : kAllBackends) {
        for (const int threads : {1, 2, 8}) {
          SCOPED_TRACE(std::string(to_string(uut.kind)) + " scheme=" +
                       std::to_string(static_cast<int>(scheme)) +
                       " backend=" + rtl::to_string(backend) +
                       " threads=" + std::to_string(threads));
          SeuCampaignConfig run = camp;
          run.backend = backend;
          run.threads = threads;
          expect_same_unit(run_unit_campaign(uut.kind, uut.fmt, cfg, run),
                           baseline);
        }
      }
    }
  }
}

// Two serve-scale campaigns on which a suffix that skipped pieces on
// faulty states (observational dead-piece pruning) miscounted: add
// binary32 at 3 stages (seed 5) and ieee mul binary32 at 3 stages under
// the residue checker (seed 41), 512 faults each.
TEST(BackendEquivalence, ServeScaleCampaignsMatchInterpreted) {
  const struct {
    units::UnitKind kind;
    bool ieee;
    fault::Scheme scheme;
    std::uint64_t seed;
  } repros[] = {
      {units::UnitKind::kAdder, false, fault::Scheme::kNone, 5},
      {units::UnitKind::kMultiplier, true, fault::Scheme::kResidue, 41},
  };
  for (const auto& r : repros) {
    SCOPED_TRACE(std::string(to_string(r.kind)) +
                 " seed=" + std::to_string(r.seed));
    units::UnitConfig cfg;
    cfg.stages = 3;
    cfg.ieee_mode = r.ieee;
    SeuCampaignConfig camp;
    camp.faults = 512;
    camp.seed = r.seed;
    camp.scheme = r.scheme;
    camp.threads = 1;
    camp.backend = rtl::EvalBackend::kInterpreted;
    const UnitSeuResult reference =
        run_unit_campaign(r.kind, fp::FpFormat::binary32(), cfg, camp);
    camp.backend = rtl::EvalBackend::kCompiled;
    expect_same_unit(
        run_unit_campaign(r.kind, fp::FpFormat::binary32(), cfg, camp),
        reference);
  }
}

// kAuto resolves through FLOPSIM_BACKEND exactly like an explicit request.
TEST(BackendEquivalence, AutoResolvesThroughTheEnvironment) {
  ASSERT_EQ(::setenv("FLOPSIM_BACKEND", "compiled", /*overwrite=*/1), 0);
  EXPECT_EQ(rtl::resolve_backend(rtl::EvalBackend::kAuto),
            rtl::EvalBackend::kCompiled);
  // Explicit requests ignore the environment.
  EXPECT_EQ(rtl::resolve_backend(rtl::EvalBackend::kInterpreted),
            rtl::EvalBackend::kInterpreted);

  units::UnitConfig cfg;
  cfg.stages = 5;
  SeuCampaignConfig camp;
  camp.faults = 24;
  camp.scheme = fault::Scheme::kResidue;
  camp.threads = 1;
  camp.backend = rtl::EvalBackend::kAuto;
  const UnitSeuResult via_env =
      run_unit_campaign(units::UnitKind::kAdder, fp::FpFormat::binary32(), cfg,
                        camp);
  ASSERT_EQ(::unsetenv("FLOPSIM_BACKEND"), 0);
  EXPECT_EQ(rtl::resolve_backend(rtl::EvalBackend::kAuto),
            rtl::EvalBackend::kInterpreted);

  camp.backend = rtl::EvalBackend::kInterpreted;
  const UnitSeuResult reference =
      run_unit_campaign(units::UnitKind::kAdder, fp::FpFormat::binary32(), cfg,
                        camp);
  expect_same_unit(via_env, reference);

  // A garbage value falls back to the interpreted default, not an error —
  // environment resolution mirrors FLOPSIM_THREADS's forgiving parse. The
  // retired batch mode's name is garbage now too.
  for (const char* garbage : {"warp-drive", "bitsliced"}) {
    ASSERT_EQ(::setenv("FLOPSIM_BACKEND", garbage, 1), 0);
    EXPECT_EQ(rtl::resolve_backend(rtl::EvalBackend::kAuto),
              rtl::EvalBackend::kInterpreted)
        << garbage;
  }
  ASSERT_EQ(::unsetenv("FLOPSIM_BACKEND"), 0);
}

// The backend is an execution detail, not part of the campaign identity:
// a run interrupted under one backend must resume under another, land on
// the same sidecar, and finish bit-identical to an uninterrupted run.
TEST(BackendEquivalence, ResumeCrossesBackendsBitIdentically) {
  const auto kind = units::UnitKind::kMultiplier;
  const fp::FpFormat fmt = fp::FpFormat::binary64();
  units::UnitConfig cfg;
  cfg.stages = 6;
  SeuCampaignConfig camp;
  camp.faults = 40;
  camp.scheme = fault::Scheme::kResidue;
  camp.threads = 1;
  camp.backend = rtl::EvalBackend::kInterpreted;
  const UnitSeuResult baseline = run_unit_campaign(kind, fmt, cfg, camp);

  const rtl::EvalBackend pairs[][2] = {
      {rtl::EvalBackend::kCompiled, rtl::EvalBackend::kInterpreted},
      {rtl::EvalBackend::kInterpreted, rtl::EvalBackend::kCompiled},
  };
  int variant = 0;
  for (const auto& pair : pairs) {
    SCOPED_TRACE(std::string("interrupt=") + rtl::to_string(pair[0]) +
                 " resume=" + rtl::to_string(pair[1]));
    const std::string dir =
        fresh_dir("backend_resume_" + std::to_string(variant++));
    CampaignRunControl interrupt;
    interrupt.checkpoint_dir = dir;
    interrupt.chunk_trials = 8;
    interrupt.trial_budget = 8;
    SeuCampaignConfig first = camp;
    first.backend = pair[0];
    first.threads = 2;
    const UnitSeuResult partial =
        run_unit_campaign(kind, fmt, cfg, first, interrupt);
    ASSERT_TRUE(partial.run.interrupted);

    CampaignRunControl resume;
    resume.checkpoint_dir = dir;
    resume.resume = true;
    resume.chunk_trials = 8;
    SeuCampaignConfig second = camp;
    second.backend = pair[1];
    second.threads = 8;
    const UnitSeuResult resumed =
        run_unit_campaign(kind, fmt, cfg, second, resume);
    EXPECT_FALSE(resumed.run.interrupted);
    EXPECT_GE(resumed.run.chunks_restored, 1)
        << "the other backend's sidecar was not found: the backend leaked "
           "into the spec hash";
    expect_same_unit(resumed, baseline);
  }
}

// The depth sweep threads the backend through every inner campaign.
TEST(BackendEquivalence, DepthSweepMatchesAcrossBackends) {
  const std::vector<int> depths{1, 4, 9};
  SeuCampaignConfig camp;
  camp.faults = 16;
  camp.threads = 1;
  camp.backend = rtl::EvalBackend::kInterpreted;
  const std::vector<SeuDepthPoint> baseline = seu_depth_sweep(
      units::UnitKind::kAdder, fp::FpFormat::binary32(), depths, camp).points;

  SeuCampaignConfig run = camp;
  run.backend = rtl::EvalBackend::kCompiled;
  const std::vector<SeuDepthPoint> points = seu_depth_sweep(
      units::UnitKind::kAdder, fp::FpFormat::binary32(), depths, run).points;
  ASSERT_EQ(points.size(), baseline.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    SCOPED_TRACE("depth index " + std::to_string(i));
    EXPECT_EQ(points[i].stages, baseline[i].stages);
    EXPECT_EQ(points[i].pipeline_ffs, baseline[i].pipeline_ffs);
    EXPECT_EQ(points[i].occupied_bits, baseline[i].occupied_bits);
    EXPECT_EQ(points[i].avf, baseline[i].avf);
    EXPECT_EQ(points[i].sdc_fraction, baseline[i].sdc_fraction);
    EXPECT_EQ(points[i].sdc_fit, baseline[i].sdc_fit);
  }
}

}  // namespace
}  // namespace flopsim::analysis
