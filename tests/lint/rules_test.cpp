// Every lint rule, demonstrated both ways: the clean toy chain produces no
// findings, and a per-rule seeded defect makes exactly that rule fire.
#include <sstream>

#include <gtest/gtest.h>

#include "lint/lint.hpp"
#include "lint/report.hpp"
#include "rtl/pipeline.hpp"
#include "rtl/semops.hpp"
#include "fixtures.hpp"

namespace flopsim::lint {
namespace {

using testing::toy_chain;
using testing::toy_contract;

std::string rendered(const Report& r) {
  std::ostringstream os;
  write_text(os, r, /*include_notes=*/true);
  return os.str();
}

// --- registry -------------------------------------------------------------

TEST(LintRegistry, RuleIdsAreUniqueAndOrdered) {
  const std::vector<RuleInfo>& rules = rule_registry();
  ASSERT_FALSE(rules.empty());
  for (std::size_t i = 1; i < rules.size(); ++i) {
    EXPECT_LT(std::string(rules[i - 1].id), std::string(rules[i].id));
  }
}

TEST(LintRegistry, FindRuleRoundTrips) {
  for (const RuleInfo& r : rule_registry()) {
    const RuleInfo* found = find_rule(r.id);
    ASSERT_NE(found, nullptr) << r.id;
    EXPECT_EQ(found->severity, r.severity);
  }
  EXPECT_EQ(find_rule("DL999"), nullptr);
}

// --- the clean baseline ---------------------------------------------------

TEST(LintChain, CleanChainHasNoFindings) {
  const Report r = lint_chain(toy_chain(), toy_contract());
  EXPECT_TRUE(r.findings.empty()) << rendered(r);
}

TEST(LintPlan, CleanPlanHasNoFindings) {
  const rtl::PieceChain chain = toy_chain();
  const rtl::PipelinePlan plan = rtl::plan_pipeline(chain, 2);
  const Report r = lint_plan(chain, plan, device::TechModel::virtex2pro7(),
                             device::Objective::kArea, "toy");
  EXPECT_TRUE(r.findings.empty()) << rendered(r);
}

// --- DL0xx structural -----------------------------------------------------

TEST(LintRules, DL001NegativeDelay) {
  rtl::PieceChain chain = toy_chain();
  chain[1].delay_ns = -0.5;
  const Report r = lint_chain(chain, toy_contract());
  const auto hits = r.with_rule("DL001");
  ASSERT_EQ(hits.size(), 1u) << rendered(r);
  EXPECT_EQ(hits[0].severity, Severity::kError);
  EXPECT_EQ(hits[0].piece, 1);
  EXPECT_EQ(hits[0].piece_name, "twist");
}

TEST(LintRules, DL002ChainedDiscountExceedsDelay) {
  rtl::PieceChain chain = toy_chain();
  chain[2].delay_chained_ns = chain[2].delay_ns + 1.0;
  const Report r = lint_chain(chain, toy_contract());
  ASSERT_EQ(r.with_rule("DL002").size(), 1u) << rendered(r);
  EXPECT_EQ(r.with_rule("DL002")[0].piece, 2);
}

TEST(LintRules, DL003DiscountWithNoSameGroupPredecessor) {
  rtl::PieceChain chain = toy_chain();
  chain[1].delay_chained_ns = 0.5;  // predecessor "sum" is group "front"
  const Report r = lint_chain(chain, toy_contract());
  const auto hits = r.with_rule("DL003");
  ASSERT_EQ(hits.size(), 1u) << rendered(r);
  EXPECT_EQ(hits[0].severity, Severity::kWarning);
  EXPECT_TRUE(r.clean());  // a warning, not an error
}

TEST(LintRules, DL004MissingEval) {
  rtl::PieceChain chain = toy_chain();
  chain[1].eval = nullptr;
  const Report r = lint_chain(chain, toy_contract());
  ASSERT_EQ(r.with_rule("DL004").size(), 1u) << rendered(r);
  // An undrivable chain must skip def-use inference, not crash in it.
  EXPECT_TRUE(r.with_rule("DL101").empty());
}

TEST(LintRules, DL005EmptyAndDuplicateNames) {
  rtl::PieceChain chain = toy_chain();
  chain[1].name = "";
  Report r = lint_chain(chain, toy_contract());
  ASSERT_EQ(r.with_rule("DL005").size(), 1u) << rendered(r);

  chain = toy_chain();
  chain[2].name = "sum";  // duplicates piece 0
  r = lint_chain(chain, toy_contract());
  const auto hits = r.with_rule("DL005");
  ASSERT_EQ(hits.size(), 1u) << rendered(r);
  EXPECT_EQ(hits[0].piece, 2);
}

TEST(LintRules, DL006NegativeAndZeroLiveBits) {
  rtl::PieceChain chain = toy_chain();
  chain[0].live_bits = -4;
  Report r = lint_chain(chain, toy_contract());
  ASSERT_EQ(r.with_rule("DL006").size(), 1u) << rendered(r);
  EXPECT_EQ(r.with_rule("DL006")[0].severity, Severity::kError);

  chain = toy_chain();
  chain[0].live_bits = 0;  // cuttable internal boundary with a free register
  r = lint_chain(chain, toy_contract());
  const auto hits = r.with_rule("DL006");
  ASSERT_EQ(hits.size(), 1u) << rendered(r);
  EXPECT_EQ(hits[0].severity, Severity::kWarning);
  EXPECT_EQ(hits[0].boundary, 0);
}

TEST(LintRules, DL007EmptyChain) {
  ChainContract contract = toy_contract();
  contract.stimuli.clear();
  const Report r = lint_chain(rtl::PieceChain{}, contract);
  ASSERT_EQ(r.with_rule("DL007").size(), 1u) << rendered(r);
}

TEST(LintRules, DL008UnpipelinableChain) {
  rtl::PieceChain chain = toy_chain();
  chain[0].cut_after = false;
  chain[1].cut_after = false;
  const Report r = lint_chain(chain, toy_contract());
  const auto hits = r.with_rule("DL008");
  ASSERT_EQ(hits.size(), 1u) << rendered(r);
  EXPECT_EQ(hits[0].severity, Severity::kWarning);
}

TEST(LintRules, DL009ZeroWidthOutputRegister) {
  rtl::PieceChain chain = toy_chain();
  chain[2].live_bits = 0;
  const Report r = lint_chain(chain, toy_contract());
  ASSERT_EQ(r.with_rule("DL009").size(), 1u) << rendered(r);
  EXPECT_FALSE(r.clean());
}

TEST(LintRules, DL010NegativeArea) {
  rtl::PieceChain chain = toy_chain();
  chain[1].area.luts = -8;
  const Report r = lint_chain(chain, toy_contract());
  ASSERT_EQ(r.with_rule("DL010").size(), 1u) << rendered(r);
}

// --- DL1xx def-use --------------------------------------------------------

TEST(LintRules, DL101UninitializedRead) {
  rtl::PieceChain chain = toy_chain();
  // Lane 5 is neither a contract input nor written by any piece.
  chain[1].eval = [](rtl::SignalSet& s) { s[3] = s[2] ^ s[5]; };
  const Report r = lint_chain(chain, toy_contract());
  const auto hits = r.with_rule("DL101");
  ASSERT_EQ(hits.size(), 1u) << rendered(r);
  EXPECT_EQ(hits[0].piece, 1);
  EXPECT_EQ(hits[0].lane, 5);
  EXPECT_EQ(hits[0].severity, Severity::kError);
}

TEST(LintRules, DL102DeadWrite) {
  rtl::PieceChain chain = toy_chain();
  chain[0].eval = [](rtl::SignalSet& s) {
    s[2] = s[0] + s[1];
    s[4] = s[0] * 3;  // nothing downstream reads lane 4
  };
  const Report r = lint_chain(chain, toy_contract());
  const auto hits = r.with_rule("DL102");
  ASSERT_EQ(hits.size(), 1u) << rendered(r);
  EXPECT_EQ(hits[0].piece, 0);
  EXPECT_EQ(hits[0].lane, 4);
  EXPECT_EQ(hits[0].severity, Severity::kWarning);
}

TEST(LintRules, DL103OutOfRangeLane) {
  rtl::PieceChain chain = toy_chain();
  chain[1].eval = [](rtl::SignalSet& s) {
    s[3] = s[2] ^ (s[2] >> 7);
    s[25] = 1;  // past kMaxSignals; the listener is the bounds check
  };
  const Report r = lint_chain(chain, toy_contract());
  const auto hits = r.with_rule("DL103");
  ASSERT_EQ(hits.size(), 1u) << rendered(r);
  EXPECT_EQ(hits[0].lane, 25);
  EXPECT_EQ(hits[0].severity, Severity::kError);
}

TEST(LintRules, DL104NondeterministicEval) {
  rtl::PieceChain chain = toy_chain();
  chain[1].eval = [n = 0](rtl::SignalSet& s) mutable {
    s[3] = s[2] + static_cast<fp::u64>(n++ & 1);
  };
  const Report r = lint_chain(chain, toy_contract());
  ASSERT_GE(r.with_rule("DL104").size(), 1u) << rendered(r);
  EXPECT_EQ(r.with_rule("DL104")[0].piece, 1);
}

TEST(LintRules, DL105PlaceholderPieceOnlyWithNotes) {
  rtl::PieceChain chain = toy_chain();
  rtl::Piece pad;
  pad.name = "pad";
  pad.group = "back";
  pad.delay_ns = 0.1;
  pad.live_bits = 18;
  pad.eval = [](rtl::SignalSet&) {};
  chain.push_back(pad);

  Options opts;
  opts.notes = true;
  Report r = lint_chain(chain, toy_contract(), opts);
  const auto hits = r.with_rule("DL105");
  ASSERT_EQ(hits.size(), 1u) << rendered(r);
  EXPECT_EQ(hits[0].piece, 3);
  EXPECT_EQ(hits[0].severity, Severity::kNote);
  EXPECT_TRUE(r.clean());

  opts.notes = false;
  r = lint_chain(chain, toy_contract(), opts);
  EXPECT_TRUE(r.with_rule("DL105").empty()) << rendered(r);
}

TEST(LintRules, DL106ResultNeverWritten) {
  rtl::PieceChain chain = toy_chain();
  chain[2].eval = [](rtl::SignalSet& s) { s[6] = s[3] + 1; };  // not lane 0
  const Report r = lint_chain(chain, toy_contract());
  const auto hits = r.with_rule("DL106");
  ASSERT_EQ(hits.size(), 1u) << rendered(r);
  EXPECT_EQ(hits[0].lane, 0);
  EXPECT_EQ(hits[0].severity, Severity::kError);
}

// --- DL2xx live_bits vs. inference ----------------------------------------

TEST(LintRules, DL201UnderdeclaredLiveBits) {
  rtl::PieceChain chain = toy_chain();
  chain[0].live_bits = 2;  // lane 2 alone carries ~17 bits across this cut
  const Report r = lint_chain(chain, toy_contract());
  const auto hits = r.with_rule("DL201");
  ASSERT_EQ(hits.size(), 1u) << rendered(r);
  EXPECT_EQ(hits[0].boundary, 0);
  EXPECT_EQ(hits[0].severity, Severity::kError);
  EXPECT_NE(hits[0].message.find("undercounts"), std::string::npos);
}

// DL202 is a proven finding: it needs the absint engine's upper bound, so
// it runs on a copy of the toy chain whose pieces carry sem programs.
rtl::PieceChain annotated_toy_chain() {
  namespace sm = rtl::sem;
  rtl::PieceChain chain = toy_chain();
  chain[0].sem = {sm::read(0), sm::read(1), sm::add(2, 0, 1)};
  chain[1].sem = {sm::shr(3, 2, 7), sm::bxor(3, 2, 3)};
  chain[2].sem = {sm::addi(0, 3, 1)};
  return chain;
}

TEST(LintRules, DL202OverdeclaredLiveBits) {
  rtl::PieceChain chain = annotated_toy_chain();
  chain[0].live_bits = 500;
  const Report r = lint_chain(chain, toy_contract());
  EXPECT_EQ(r.absint_subjects, 1) << "the copy must be fully annotated";
  const auto hits = r.with_rule("DL202");
  ASSERT_EQ(hits.size(), 1u) << rendered(r);
  EXPECT_EQ(hits[0].severity, Severity::kWarning);
  EXPECT_TRUE(r.clean());
}

TEST(LintRules, DL201ToleranceKnobSuppressesSmallDeficits) {
  rtl::PieceChain chain = toy_chain();
  chain[0].live_bits = 14;  // a few bits under the ~17-bit inferred width
  Options opts;
  opts.live_bits_deficit_tol = 64;
  const Report r = lint_chain(chain, toy_contract(), opts);
  EXPECT_TRUE(r.with_rule("DL201").empty()) << rendered(r);
}

// --- DL3xx plan + claim cross-checks --------------------------------------

TEST(LintRules, DL301MalformedStageBegin) {
  const rtl::PieceChain chain = toy_chain();
  rtl::PipelinePlan plan;
  plan.stage_begin = {0, 0, 3};  // not strictly rising
  const Report r = lint_plan(chain, plan, device::TechModel::virtex2pro7(),
                             device::Objective::kArea, "toy");
  ASSERT_EQ(r.with_rule("DL301").size(), 1u) << rendered(r);
}

TEST(LintRules, DL302CutAtNonCuttableBoundary) {
  rtl::PieceChain chain = toy_chain();
  chain[1].cut_after = false;
  rtl::PipelinePlan plan;
  plan.stage_begin = {0, 2, 3};  // stage 1 begins right after piece 1
  const Report r = lint_plan(chain, plan, device::TechModel::virtex2pro7(),
                             device::Objective::kArea, "toy");
  const auto hits = r.with_rule("DL302");
  ASSERT_EQ(hits.size(), 1u) << rendered(r);
  EXPECT_EQ(hits[0].boundary, 1);
}

TEST(LintRules, DL303DepthClampMismatch) {
  EXPECT_TRUE(check_depth_claim(3, 5, 3, 3, 3, "toy").findings.empty());
  const Report r = check_depth_claim(2, 5, 3, 2, 2, "toy");
  ASSERT_EQ(r.with_rule("DL303").size(), 1u) << rendered(r);
}

TEST(LintRules, DL304TimingClaimMismatch) {
  const rtl::PieceChain chain = toy_chain();
  const rtl::PipelinePlan plan = rtl::plan_pipeline(chain, 2);
  const device::TechModel tech = device::TechModel::virtex2pro7();
  rtl::Timing claimed = rtl::evaluate_timing(chain, plan, tech);
  EXPECT_TRUE(check_timing_claim(chain, plan, tech, claimed, "toy")
                  .findings.empty());

  rtl::Timing wrong_critical = claimed;
  wrong_critical.critical_ns += 0.5;
  Report r = check_timing_claim(chain, plan, tech, wrong_critical, "toy");
  ASSERT_EQ(r.with_rule("DL304").size(), 1u) << rendered(r);

  rtl::Timing wrong_period = claimed;
  wrong_period.period_ns += 1.0;
  r = check_timing_claim(chain, plan, tech, wrong_period, "toy");
  ASSERT_EQ(r.with_rule("DL304").size(), 1u) << rendered(r);
}

TEST(LintRules, DL305LatencyDisagreesWithPlan) {
  const Report r = check_depth_claim(3, 3, 3, 4, 3, "toy");
  ASSERT_EQ(r.with_rule("DL305").size(), 1u) << rendered(r);
  EXPECT_TRUE(r.with_rule("DL303").empty());
}

TEST(LintRules, DL306AreaClaimMismatch) {
  const rtl::PieceChain chain = toy_chain();
  const rtl::PipelinePlan plan = rtl::plan_pipeline(chain, 2);
  const device::TechModel tech = device::TechModel::virtex2pro7();
  rtl::AreaBreakdown claimed =
      rtl::evaluate_area(chain, plan, tech, device::Objective::kArea);
  EXPECT_TRUE(check_area_claim(chain, plan, claimed, "toy").findings.empty());

  rtl::AreaBreakdown wrong_ffs = claimed;
  wrong_ffs.pipeline_ffs += 7;
  Report r = check_area_claim(chain, plan, wrong_ffs, "toy");
  ASSERT_EQ(r.with_rule("DL306").size(), 1u) << rendered(r);

  rtl::AreaBreakdown wrong_split = claimed;
  wrong_split.absorbed_ffs = wrong_split.pipeline_ffs + 5;
  r = check_area_claim(chain, plan, wrong_split, "toy");
  ASSERT_EQ(r.with_rule("DL306").size(), 1u) << rendered(r);
}

// Findings inherit their severity from the registry, so reports and the
// docs/extending.md rule table can never disagree with the engine.
TEST(LintRules, FindingSeveritiesMatchRegistry) {
  rtl::PieceChain chain = toy_chain();
  chain[0].live_bits = 2;
  chain[1].delay_chained_ns = 0.5;
  const Report r = lint_chain(chain, toy_contract());
  for (const Finding& f : r.findings) {
    const RuleInfo* info = find_rule(f.rule);
    ASSERT_NE(info, nullptr) << f.rule;
    // DL006's zero-width case downgrades to warning; everything else
    // fires at registry severity.
    if (f.rule != "DL006") {
      EXPECT_EQ(f.severity, info->severity) << f.rule;
    }
  }
}

}  // namespace
}  // namespace flopsim::lint
