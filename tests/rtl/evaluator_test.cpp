// The Evaluator backends and the per-stage helper they share with
// PipelineSim: eval_stage() reproduces the chain stage by stage, and the
// interpreted and compiled evaluators answer every upset — occupied or
// bubble, original or fork — with identical UpsetTrial results, checked
// exhaustively over every occupied latch bit of two real units.
#include "rtl/evaluator.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fault/campaign.hpp"
#include "rtl/simulator.hpp"
#include "units/fp_unit.hpp"

namespace flopsim::rtl {
namespace {

constexpr int kResult = units::detail::kLaneResult;

Piece piece(const char* name, std::function<void(SignalSet&)> eval) {
  Piece p;
  p.name = name;
  p.group = "test";
  p.delay_ns = 1.0;
  p.live_bits = 8;
  p.eval = std::move(eval);
  return p;
}

std::vector<SignalSet> unit_workload(const units::FpUnit& unit, int vectors,
                                     std::uint64_t seed) {
  std::vector<SignalSet> stimuli;
  for (const units::UnitInput& in : fault::campaign_workload(
           unit.kind(), unit.format(), vectors, seed)) {
    stimuli.push_back(units::FpUnit::pack(in));
  }
  return stimuli;
}

void expect_same_trial(const UpsetTrial& a, const UpsetTrial& b,
                       const std::string& where) {
  EXPECT_EQ(a.struck, b.struck) << where;
  EXPECT_EQ(a.corrupted, b.corrupted) << where;
  EXPECT_EQ(a.valid, b.valid) << where;
  EXPECT_EQ(a.result, b.result) << where;
  EXPECT_EQ(a.flags, b.flags) << where;
}

TEST(StageEval, InvalidBundlesFlowThroughUnevaluated) {
  PieceChain chain;
  chain.push_back(piece("inc", [](SignalSet& s) { s[1] = s[0] + 1; }));
  PipelinePlan plan;
  plan.stage_begin = {0, 1};

  SignalSet bubble;
  bubble.lane[0] = 9;
  const SignalSet before = bubble;
  eval_stage(chain, plan, 0, bubble);
  EXPECT_EQ(bubble.lane, before.lane);

  SignalSet live = before;
  live.valid = true;
  eval_stage(chain, plan, 0, live);
  EXPECT_EQ(live.lane[1], 10u);
}

// Stage by stage, eval_stage() runs exactly the chain: the composition
// over every stage of a real unit's plan equals evaluate_chain.
TEST(StageEval, StagesComposeToTheWholeChain) {
  for (const units::UnitKind kind :
       {units::UnitKind::kAdder, units::UnitKind::kMultiplier}) {
    for (const fp::FpFormat fmt :
         {fp::FpFormat::binary32(), fp::FpFormat::binary64()}) {
      units::UnitConfig cfg;
      cfg.stages = kind == units::UnitKind::kAdder ? 5 : 6;
      const units::FpUnit unit(kind, fmt, cfg);
      for (const SignalSet& in : unit_workload(unit, 16, 0x5eed)) {
        SignalSet ref = in;
        evaluate_chain(unit.pieces(), ref);
        SignalSet staged = in;
        for (int s = 0; s < unit.plan().stages(); ++s) {
          eval_stage(unit.pieces(), unit.plan(), s, staged);
        }
        EXPECT_EQ(staged.lane, ref.lane) << unit.name();
        EXPECT_EQ(staged.flags, ref.flags) << unit.name();
      }
    }
  }
}

// Both backends answer every upset — occupied or bubble — with identical
// UpsetTrial results.
TEST(Evaluator, BackendsAgreeTrialForTrial) {
  units::UnitConfig cfg;
  cfg.stages = 5;
  const units::FpUnit unit(units::UnitKind::kAdder, fp::FpFormat::binary32(),
                           cfg);
  const std::vector<SignalSet> stimuli = unit_workload(unit, 8, 0x5eed);
  const long horizon = 8 + unit.latency() + 2;

  std::unique_ptr<Evaluator> interp = make_evaluator(
      EvalBackend::kInterpreted, unit.pieces(), unit.plan(), kResult);
  std::unique_ptr<Evaluator> compiled = make_evaluator(
      EvalBackend::kCompiled, unit.pieces(), unit.plan(), kResult);
  EXPECT_EQ(interp->backend(), EvalBackend::kInterpreted);
  EXPECT_EQ(compiled->backend(), EvalBackend::kCompiled);
  for (Evaluator* ev : {interp.get(), compiled.get()}) {
    ev->bind(stimuli, horizon);
    EXPECT_EQ(ev->stages(), unit.plan().stages());
    EXPECT_EQ(ev->vectors(), 8);
  }

  int struck_seen = 0;
  int bubble_seen = 0;
  for (long cycle = 0; cycle < horizon; ++cycle) {
    for (int stage = 0; stage < unit.plan().stages(); ++stage) {
      for (const int bit : {0, 7, 22, 31, 63}) {
        for (const int lane : {kResult, 3}) {
          const LatchUpset u{cycle, stage, lane, bit};
          const UpsetTrial a = interp->trial(u);
          expect_same_trial(a, compiled->trial(u),
                            "cycle=" + std::to_string(cycle) +
                                " stage=" + std::to_string(stage));
          struck_seen += a.struck ? 1 : 0;
          bubble_seen += a.struck ? 0 : 1;
        }
      }
    }
  }
  // The sweep genuinely covered both occupied latches and bubbles.
  EXPECT_GT(struck_seen, 0);
  EXPECT_GT(bubble_seen, 0);
}

// fork() shares bound state and answers identically — the per-worker path
// the campaign grid uses.
TEST(Evaluator, ForksAnswerLikeTheOriginal) {
  units::UnitConfig cfg;
  cfg.stages = 6;
  const units::FpUnit unit(units::UnitKind::kMultiplier,
                           fp::FpFormat::binary64(), cfg);
  const long horizon = 8 + unit.latency() + 2;
  std::unique_ptr<Evaluator> compiled = make_evaluator(
      EvalBackend::kCompiled, unit.pieces(), unit.plan(), kResult);
  compiled->bind(unit_workload(unit, 8, 0x5eed), horizon);
  const std::unique_ptr<Evaluator> forked = compiled->fork();
  EXPECT_EQ(forked->backend(), EvalBackend::kCompiled);
  for (long cycle = 0; cycle < horizon; cycle += 3) {
    const LatchUpset u{cycle, 2, kResult, 17};
    expect_same_trial(compiled->trial(u), forked->trial(u),
                      "cycle=" + std::to_string(cycle));
  }
}

// Every occupied (vector, stage, lane, bit) site of the campaign sample
// space — bits some workload vector latches as one in that stage — is
// struck in every vector, and the compiled suffix replay must reproduce
// the interpreted verdict at each. A suffix that skips pieces on faulty
// states (as observational dead-piece pruning did) diverges here.
void expect_agreement_at_every_occupied_site(const units::FpUnit& unit) {
  const int vectors = 32;
  const long horizon = vectors + unit.latency() + 2;
  const std::vector<SignalSet> stimuli = unit_workload(unit, vectors, 12345);
  std::unique_ptr<Evaluator> interp = make_evaluator(
      EvalBackend::kInterpreted, unit.pieces(), unit.plan(), kResult);
  std::unique_ptr<Evaluator> compiled = make_evaluator(
      EvalBackend::kCompiled, unit.pieces(), unit.plan(), kResult);
  interp->bind(stimuli, horizon);
  compiled->bind(stimuli, horizon);

  long sites = 0;
  long divergent = 0;
  for (int s = 0; s < unit.plan().stages(); ++s) {
    std::array<fp::u64, kMaxSignals> occupied{};
    for (int v = 0; v < vectors; ++v) {
      for (int l = 0; l < kMaxSignals; ++l) {
        occupied[static_cast<std::size_t>(l)] |=
            interp->clean_state(v, s).lane[static_cast<std::size_t>(l)];
      }
    }
    for (int v = 0; v < vectors; ++v) {
      for (int l = 0; l < kMaxSignals; ++l) {
        for (fp::u64 w = occupied[static_cast<std::size_t>(l)]; w != 0;
             w &= w - 1) {
          const LatchUpset u{v + s, s, l, __builtin_ctzll(w)};
          const UpsetTrial a = interp->trial(u);
          const UpsetTrial b = compiled->trial(u);
          ++sites;
          if (a.struck != b.struck || a.corrupted != b.corrupted ||
              a.valid != b.valid || a.result != b.result ||
              a.flags != b.flags) {
            if (divergent++ == 0) {
              ADD_FAILURE() << unit.name() << ": first divergence at vector "
                            << v << " stage " << s << " lane " << l
                            << " bit " << u.bit;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(sites, 0);
  EXPECT_EQ(divergent, 0) << "of " << sites << " occupied sites";
}

TEST(Evaluator, CompiledMatchesInterpretedAtEveryOccupiedSiteAdd32) {
  units::UnitConfig cfg;
  cfg.stages = 3;
  expect_agreement_at_every_occupied_site(units::FpUnit(
      units::UnitKind::kAdder, fp::FpFormat::binary32(), cfg));
}

TEST(Evaluator, CompiledMatchesInterpretedAtEveryOccupiedSiteIeeeMul32) {
  units::UnitConfig cfg;
  cfg.stages = 3;
  cfg.ieee_mode = true;
  expect_agreement_at_every_occupied_site(units::FpUnit(
      units::UnitKind::kMultiplier, fp::FpFormat::binary32(), cfg));
}

}  // namespace
}  // namespace flopsim::rtl
