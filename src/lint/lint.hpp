// Datapath lint: static verification of piece chains, pipeline plans, and
// the declared cost models they carry.
//
// Everything the analysis layers report — the Fig. 2/3 frequency-area
// curves, the Table 1-2 depth selections, the FF-cost accounting — hangs
// off per-piece declarations (`delay_ns`, `live_bits`, `cut_after`, area)
// that every unit hand-writes and nothing else cross-checks. A wrong
// `live_bits` silently skews the area model; a stale `delay_chained_ns`
// quietly shifts the balanced-partition cuts. This engine is the
// SpyGlass-style structural gate real FPGA flows put in front of
// synthesis: every rule produces a Finding with a stable rule ID, a
// severity, and a location, and the zoo-wide sweep (tools/flopsim-lint)
// must come back error-free before a unit ships.
//
// Rule families:
//   DL0xx  structural: delays, chaining declarations, cut legality,
//          areas, names, eval presence
//   DL1xx  lane def-use (inferred via the instrumented SignalSet probe,
//          see probe.hpp): uninitialized reads, dead writes, out-of-range
//          lanes, nondeterministic evals, unreachable result
//   DL2xx  declared live_bits vs. the inferred live lane set at each
//          cuttable boundary (the FF cost the area model consumes)
//   DL3xx  plan-level: stage_begin well-formedness, cut legality,
//          latency agreement, and recomputation cross-checks of
//          evaluate_timing / evaluate_area
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "device/tech.hpp"
#include "rtl/piece.hpp"
#include "rtl/pipeline.hpp"

namespace flopsim::units {
class FpUnit;
class FormatConverter;
}  // namespace flopsim::units

namespace flopsim::lint {

enum class Severity { kNote, kWarning, kError };

const char* to_string(Severity s);

/// One diagnostic. `piece`, `lane` and `boundary` are -1 when the finding
/// is not tied to that kind of location.
struct Finding {
  std::string rule;        ///< stable rule ID, e.g. "DL101"
  Severity severity = Severity::kWarning;
  std::string subject;     ///< unit/chain name, e.g. "fp_add<binary32>/s3"
  int piece = -1;          ///< piece index within the chain
  std::string piece_name;  ///< e.g. "align_l2"
  int lane = -1;           ///< SignalSet lane
  int boundary = -1;       ///< cut boundary (register after piece `boundary`)
  std::string message;
};

struct Report {
  std::vector<Finding> findings;
  /// Abstract-interpretation coverage counters (src/lint/absint.*):
  /// subjects whose chains were fully annotated and analyzed, cut
  /// boundaries with a proven width bound, boundaries where the
  /// probe-vs-absint sandwich collapsed to an exact width, and concrete
  /// values verified to lie inside the abstract state.
  int absint_subjects = 0;
  int absint_boundaries = 0;
  int absint_exact = 0;
  int absint_checks = 0;

  int count(Severity s) const;
  int errors() const { return count(Severity::kError); }
  int warnings() const { return count(Severity::kWarning); }
  bool clean() const { return errors() == 0; }

  void add(Finding f) { findings.push_back(std::move(f)); }
  void merge(Report other);
  /// All findings carrying this rule ID.
  std::vector<Finding> with_rule(const std::string& rule) const;
};

/// Registry entry: the rule's ID, the severity it fires at, and a one-line
/// description (rendered into reports and docs/extending.md's rule table).
struct RuleInfo {
  const char* id;
  Severity severity;
  const char* title;
};

/// Every rule the engine knows, in ID order.
const std::vector<RuleInfo>& rule_registry();

/// Lookup by ID; nullptr for unknown IDs. O(1) after the first call.
const RuleInfo* find_rule(const std::string& id);

/// Finding filter parsed from a --rules= spec: a comma-separated list of
/// rule IDs ("DL201") or family wildcards ("DL4xx", any trailing run of
/// 'x'). Entries prefixed with '-' exclude; the rest form an include
/// allowlist (empty allowlist = include everything not excluded).
struct RuleFilter {
  std::vector<std::string> include;  ///< IDs or family prefixes
  std::vector<std::string> exclude;
  /// Throws std::invalid_argument on an entry matching no known rule.
  static RuleFilter parse(const std::string& spec);
  bool allows(const std::string& rule) const;
  bool empty() const { return include.empty() && exclude.empty(); }
};

/// Drop findings the filter rejects (counters are left untouched).
void apply_rule_filter(Report& report, const RuleFilter& filter);

struct Options {
  /// Stimulus vectors driven through the chain for def-use inference.
  int vectors = 24;
  std::uint64_t seed = 1;
  /// DL201: bits of live_bits underdeclaration tolerated before the
  /// deficit becomes an error. The inferred width is a lower bound built
  /// from observed values, so small deficits are expected noise.
  int live_bits_deficit_tol = 4;
  /// Include note-severity findings (timing-placeholder pieces etc.).
  bool notes = false;
};

/// What the chain promises its environment: which lanes arrive initialized
/// and which lane carries the result out of the final piece. Stimuli are
/// the input bundles driven during def-use inference; only the lanes named
/// in `input_lanes` are taken from them (all others start poisoned).
struct ChainContract {
  std::string name;             ///< subject for findings
  std::vector<int> input_lanes;
  /// Declared bit width of each input lane (parallel to `input_lanes`;
  /// missing entries mean 64). The absint engine seeds its entry state
  /// from these, so tighter contracts prove tighter bounds.
  std::vector<int> input_widths;
  int result_lane = 0;
  std::vector<rtl::SignalSet> stimuli;
};

/// Structural + def-use + live-bits rules over a bare chain. The second
/// overload also hands back the abstract-interpretation results (see
/// lint/absint.hpp) for callers that inspect the proofs themselves.
struct ChainAbsint;
Report lint_chain(const rtl::PieceChain& chain, const ChainContract& contract,
                  const Options& opts = {});
Report lint_chain(const rtl::PieceChain& chain, const ChainContract& contract,
                  const Options& opts, ChainAbsint* out_absint);

/// Plan-level rules (DL3xx) for a chain/plan pair, including the
/// recomputation cross-checks of evaluate_timing and evaluate_area.
Report lint_plan(const rtl::PieceChain& chain, const rtl::PipelinePlan& plan,
                 const device::TechModel& tech, device::Objective objective,
                 const std::string& subject, const Options& opts = {});

/// The recomputation checks split out so a caller (or a test) can hand in
/// claimed Timing/AreaBreakdown values and have them verified against the
/// chain + plan declarations.
Report check_timing_claim(const rtl::PieceChain& chain,
                          const rtl::PipelinePlan& plan,
                          const device::TechModel& tech,
                          const rtl::Timing& claimed,
                          const std::string& subject);
Report check_area_claim(const rtl::PieceChain& chain,
                        const rtl::PipelinePlan& plan,
                        const rtl::AreaBreakdown& claimed,
                        const std::string& subject);
/// DL303/DL305: realized depth vs. the clamped request, and declared
/// latency vs. the plan's stage count.
Report check_depth_claim(int realized, int requested, int max_stages,
                         int latency, int plan_stages,
                         const std::string& subject);

/// Full lint of a generated arithmetic unit: chain rules with the shared
/// lane contract and a campaign-workload stimulus, plus the plan rules at
/// the unit's realized depth.
Report lint_unit(const units::FpUnit& unit, const Options& opts = {});

/// Full lint of a format-converter core.
Report lint_converter(const units::FormatConverter& cvt,
                      const Options& opts = {});

}  // namespace flopsim::lint
