#include "lint/lint.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "fault/campaign.hpp"
#include "lint/absint.hpp"
#include "lint/probe.hpp"
#include "units/converter_unit.hpp"
#include "units/fp_unit.hpp"

namespace flopsim::lint {

const char* to_string(Severity s) {
  switch (s) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "unknown";
}

int Report::count(Severity s) const {
  int n = 0;
  for (const Finding& f : findings) {
    if (f.severity == s) ++n;
  }
  return n;
}

void Report::merge(Report other) {
  for (Finding& f : other.findings) findings.push_back(std::move(f));
  absint_subjects += other.absint_subjects;
  absint_boundaries += other.absint_boundaries;
  absint_exact += other.absint_exact;
  absint_checks += other.absint_checks;
}

std::vector<Finding> Report::with_rule(const std::string& rule) const {
  std::vector<Finding> out;
  for (const Finding& f : findings) {
    if (f.rule == rule) out.push_back(f);
  }
  return out;
}

const std::vector<RuleInfo>& rule_registry() {
  static const std::vector<RuleInfo> kRules = {
      {"DL001", Severity::kError,
       "piece delay_ns must be finite and non-negative"},
      {"DL002", Severity::kError,
       "delay_chained_ns is a discount: it must not exceed delay_ns"},
      {"DL003", Severity::kWarning,
       "delay_chained_ns declared on a piece with no same-group predecessor "
       "(the discount can never apply)"},
      {"DL004", Severity::kError, "piece has no eval function"},
      {"DL005", Severity::kWarning, "empty or duplicate piece name"},
      {"DL006", Severity::kError,
       "live_bits must be non-negative (negative: error; zero on a cuttable "
       "internal boundary: warning)"},
      {"DL007", Severity::kError, "chain has no pieces"},
      {"DL008", Severity::kWarning,
       "multi-piece chain with no legal internal cut (cannot be pipelined)"},
      {"DL009", Severity::kError,
       "final piece declares live_bits == 0 (the always-present output "
       "register has no width)"},
      {"DL010", Severity::kError, "piece area components must be non-negative"},
      {"DL101", Severity::kError,
       "lane read before any piece (or the input contract) wrote it"},
      {"DL102", Severity::kWarning,
       "dead write: lane is overwritten or unread downstream"},
      {"DL103", Severity::kError,
       "lane access outside [0, kMaxSignals)"},
      {"DL104", Severity::kError,
       "eval is nondeterministic (two runs on identical input diverged)"},
      {"DL105", Severity::kNote,
       "piece accesses no lanes (timing/area placeholder)"},
      {"DL106", Severity::kError, "result lane is never written"},
      {"DL201", Severity::kError,
       "declared live_bits at a cuttable boundary is below the inferred "
       "live width (the area model undercounts pipeline FFs)"},
      {"DL202", Severity::kWarning,
       "declared live_bits exceeds the proven live-width upper bound"},
      {"DL301", Severity::kError,
       "stage_begin is malformed (must rise strictly from 0 to piece count)"},
      {"DL302", Severity::kError,
       "stage boundary placed at a non-cuttable position"},
      {"DL303", Severity::kError,
       "realized pipeline depth disagrees with the clamped requested depth"},
      {"DL304", Severity::kError,
       "evaluate_timing disagrees with recomputed per-stage delays"},
      {"DL305", Severity::kError,
       "unit latency disagrees with the plan's stage count"},
      {"DL306", Severity::kError,
       "evaluate_area register count disagrees with the live_bits "
       "declarations"},
      {"DL400", Severity::kError,
       "a concrete stimulus escaped the abstract state: the piece's sem "
       "annotation under-approximates its eval"},
      {"DL401", Severity::kError,
       "declared live_bits at a cut boundary is below the exactly-proven "
       "live width (static bound and concrete witness agree; no tolerance)"},
      {"DL403", Severity::kWarning,
       "lane proven dead beyond the observed liveness the FF model relies "
       "on"},
      {"DL404", Severity::kWarning,
       "every op of a piece is provably disabled: unreachable dead code"},
      {"DL405", Severity::kWarning,
       "carry/overflow out of a truncated adder/multiplier is reachable "
       "into a dropped bit"},
  };
  return kRules;
}

const RuleInfo* find_rule(const std::string& id) {
  // Built once, so every Finding construction pays a hash lookup instead
  // of a registry scan.
  static const auto& index = *[] {
    auto* m = new std::unordered_map<std::string_view, const RuleInfo*>();
    for (const RuleInfo& r : rule_registry()) m->emplace(r.id, &r);
    return m;
  }();
  const auto it = index.find(id);
  return it == index.end() ? nullptr : it->second;
}

namespace {

/// "DL4xx" family wildcards: a trailing run of 'x' makes the entry match
/// any rule sharing the fixed prefix at the same length.
bool rule_matches_entry(const std::string& rule, const std::string& entry) {
  std::size_t fixed = entry.size();
  while (fixed > 0 && (entry[fixed - 1] == 'x' || entry[fixed - 1] == 'X')) {
    --fixed;
  }
  if (fixed == entry.size()) return rule == entry;
  return rule.size() == entry.size() &&
         rule.compare(0, fixed, entry, 0, fixed) == 0;
}

bool entry_matches_any_rule(const std::string& entry) {
  for (const RuleInfo& r : rule_registry()) {
    if (rule_matches_entry(r.id, entry)) return true;
  }
  return false;
}

}  // namespace

RuleFilter RuleFilter::parse(const std::string& spec) {
  RuleFilter filter;
  std::stringstream ss(spec);
  std::string entry;
  while (std::getline(ss, entry, ',')) {
    while (!entry.empty() && entry.front() == ' ') entry.erase(0, 1);
    while (!entry.empty() && entry.back() == ' ') entry.pop_back();
    if (entry.empty()) continue;
    const bool negated = entry.front() == '-';
    if (negated) entry.erase(0, 1);
    if (entry.empty() || !entry_matches_any_rule(entry)) {
      throw std::invalid_argument("unknown rule or family '" + entry +
                                  "' in --rules");
    }
    (negated ? filter.exclude : filter.include).push_back(entry);
  }
  return filter;
}

bool RuleFilter::allows(const std::string& rule) const {
  for (const std::string& e : exclude) {
    if (rule_matches_entry(rule, e)) return false;
  }
  if (include.empty()) return true;
  for (const std::string& e : include) {
    if (rule_matches_entry(rule, e)) return true;
  }
  return false;
}

void apply_rule_filter(Report& report, const RuleFilter& filter) {
  if (filter.empty()) return;
  std::erase_if(report.findings, [&filter](const Finding& f) {
    return !filter.allows(f.rule);
  });
}

namespace {

using rtl::kMaxSignals;

/// Finding factory that stamps the registry severity for the rule.
Finding make_finding(const char* rule, const std::string& subject,
                     std::string message) {
  const RuleInfo* info = find_rule(rule);
  Finding f;
  f.rule = rule;
  f.severity = info != nullptr ? info->severity : Severity::kError;
  f.subject = subject;
  f.message = std::move(message);
  return f;
}

Finding piece_finding(const char* rule, const std::string& subject,
                      const rtl::PieceChain& chain, int piece,
                      std::string message) {
  Finding f = make_finding(rule, subject, std::move(message));
  f.piece = piece;
  if (piece >= 0 && piece < static_cast<int>(chain.size())) {
    f.piece_name = chain[static_cast<std::size_t>(piece)].name;
  }
  return f;
}

void structural_rules(const rtl::PieceChain& chain, const std::string& subject,
                      Report& report) {
  const int n = static_cast<int>(chain.size());
  std::set<std::string> seen_names;
  for (int i = 0; i < n; ++i) {
    const rtl::Piece& p = chain[static_cast<std::size_t>(i)];
    std::ostringstream msg;
    if (!std::isfinite(p.delay_ns) || p.delay_ns < 0.0) {
      msg << "delay_ns = " << p.delay_ns << " is not a finite non-negative "
          << "delay";
      report.add(piece_finding("DL001", subject, chain, i, msg.str()));
    } else if (p.delay_chained_ns >= 0.0 &&
               p.delay_chained_ns > p.delay_ns + 1e-12) {
      msg << "delay_chained_ns = " << p.delay_chained_ns
          << " exceeds delay_ns = " << p.delay_ns
          << "; the chaining discount would lengthen the stage";
      report.add(piece_finding("DL002", subject, chain, i, msg.str()));
    }
    if (p.delay_chained_ns >= 0.0 &&
        (i == 0 || chain[static_cast<std::size_t>(i - 1)].group != p.group)) {
      msg.str("");
      msg << "declares a chaining discount but its predecessor is "
          << (i == 0 ? std::string("the chain input")
                     : "group '" + chain[static_cast<std::size_t>(i - 1)].group +
                           "'")
          << ", not group '" << p.group << "' — the discount can never apply";
      report.add(piece_finding("DL003", subject, chain, i, msg.str()));
    }
    if (!p.eval) {
      report.add(
          piece_finding("DL004", subject, chain, i, "eval is unset"));
    }
    if (p.name.empty()) {
      report.add(piece_finding("DL005", subject, chain, i,
                               "piece has an empty name"));
    } else if (!seen_names.insert(p.name).second) {
      report.add(piece_finding("DL005", subject, chain, i,
                               "duplicate piece name '" + p.name + "'"));
    }
    if (p.live_bits < 0) {
      msg.str("");
      msg << "live_bits = " << p.live_bits << " is negative";
      report.add(piece_finding("DL006", subject, chain, i, msg.str()));
    } else if (p.live_bits == 0 && p.cut_after && i + 1 < n) {
      Finding f = piece_finding(
          "DL006", subject, chain, i,
          "cuttable boundary declares live_bits = 0: a register here would "
          "be free, which starves the FF-cost model");
      f.severity = Severity::kWarning;
      f.boundary = i;
      report.add(f);
    }
    if (p.area.slices < 0 || p.area.luts < 0 || p.area.ffs < 0 ||
        p.area.bmults < 0 || p.area.brams < 0) {
      report.add(piece_finding("DL010", subject, chain, i,
                               "area declares a negative resource count"));
    }
  }
  if (n == 0) {
    report.add(make_finding("DL007", subject, "chain is empty"));
    return;
  }
  if (n > 1 && rtl::max_stages(chain) == 1) {
    report.add(make_finding(
        "DL008", subject,
        "no internal boundary is cuttable: the chain cannot be pipelined"));
  }
  if (chain.back().live_bits == 0) {
    report.add(piece_finding(
        "DL009", subject, chain, n - 1,
        "final piece declares live_bits = 0, so the always-present output "
        "register has no width"));
  }
}

void defuse_rules(const rtl::PieceChain& chain, const ChainContract& contract,
                  const ChainAccess& access, const Options& opts,
                  const std::string& subject, Report& report) {
  const int n = static_cast<int>(chain.size());
  std::array<bool, kMaxSignals> written{};
  for (int l : contract.input_lanes) {
    if (l >= 0 && l < kMaxSignals) written[static_cast<std::size_t>(l)] = true;
  }

  bool result_written = false;
  for (int p = 0; p < n; ++p) {
    const PieceAccess& pa = access.piece[static_cast<std::size_t>(p)];
    for (int oob : pa.out_of_range) {
      std::ostringstream msg;
      msg << "accessed lane " << oob << " outside [0, " << kMaxSignals << ")";
      Finding f = piece_finding("DL103", subject, chain, p, msg.str());
      f.lane = oob;
      report.add(f);
    }
    if (pa.nondeterministic) {
      report.add(piece_finding(
          "DL104", subject, chain, p,
          "eval produced different outputs on identical inputs"));
    }
    if (!pa.touched && opts.notes) {
      report.add(piece_finding("DL105", subject, chain, p,
                               "accesses no lanes (timing/area placeholder)"));
    }
    for (int l = 0; l < kMaxSignals; ++l) {
      const auto idx = static_cast<std::size_t>(l);
      if (pa.read[idx] && !written[idx]) {
        std::ostringstream msg;
        msg << "reads lane " << l << " before any piece (or the input "
            << "contract) wrote it";
        Finding f = piece_finding("DL101", subject, chain, p, msg.str());
        f.lane = l;
        report.add(f);
      }
    }
    for (int l = 0; l < kMaxSignals; ++l) {
      const auto idx = static_cast<std::size_t>(l);
      if (pa.write_any[idx]) {
        written[idx] = true;
        if (l == contract.result_lane) result_written = true;
      }
    }
  }
  if (!result_written && n > 0) {
    std::ostringstream msg;
    msg << "result lane " << contract.result_lane
        << " is never written by any piece";
    Finding f = make_finding("DL106", subject, msg.str());
    f.lane = contract.result_lane;
    report.add(f);
  }

  // Dead writes: a write with no possible downstream reader. Conditional
  // downstream writes (write_any but not write_always) do not kill a
  // value — some vector may leave it live — so only unconditional
  // overwrites and the chain end count.
  for (int p = 0; p < n; ++p) {
    const PieceAccess& pa = access.piece[static_cast<std::size_t>(p)];
    for (int l = 0; l < kMaxSignals; ++l) {
      const auto idx = static_cast<std::size_t>(l);
      if (!pa.write_any[idx]) continue;
      bool live = false;
      bool killed = false;
      for (int q = p + 1; q < n && !live && !killed; ++q) {
        const PieceAccess& qa = access.piece[static_cast<std::size_t>(q)];
        if (qa.read[idx]) {
          live = true;
        } else if (qa.write_always[idx]) {
          killed = true;
        }
      }
      if (live) continue;
      if (!killed && l == contract.result_lane) continue;
      std::ostringstream msg;
      msg << "writes lane " << l << " but the value is "
          << (killed ? "unconditionally overwritten before any read"
                     : "never read downstream");
      Finding f = piece_finding("DL102", subject, chain, p, msg.str());
      f.lane = l;
      report.add(f);
    }
  }
}

/// Comma-joined "lane:width" detail for a proven boundary.
std::string absint_lane_detail(const BoundaryBounds& bb) {
  std::ostringstream out;
  bool first = true;
  for (const LaneBound& lb : bb.lanes) {
    if (lb.demand == 0) continue;
    if (!first) out << ",";
    first = false;
    out << lb.lane << ":" << lb.upper;
  }
  return out.str();
}

void live_bits_rules(const rtl::PieceChain& chain,
                     const ChainContract& contract, const ChainAccess& access,
                     const Options& opts, const std::string& subject,
                     const ChainAbsint* absint, Report& report) {
  const int n = static_cast<int>(chain.size());
  if (n == 0) return;

  std::array<bool, kMaxSignals> defined{};
  for (int l : contract.input_lanes) {
    if (l >= 0 && l < kMaxSignals) defined[static_cast<std::size_t>(l)] = true;
  }
  // DL403 dedup: a lane that stays provably dead across consecutive
  // boundaries is one finding, reported where the dead stretch starts.
  std::array<bool, kMaxSignals> dead_reported{};

  for (int b = 0; b < n; ++b) {
    for (int l = 0; l < kMaxSignals; ++l) {
      const auto idx = static_cast<std::size_t>(l);
      if (access.piece[static_cast<std::size_t>(b)].write_any[idx]) {
        defined[idx] = true;
      }
    }
    const bool final_boundary = b == n - 1;
    if (!final_boundary && !chain[static_cast<std::size_t>(b)].cut_after) {
      continue;
    }

    // Live lanes: defined at this boundary and read by a later piece. The
    // final boundary is the output register: only the result lane leaves.
    int inferred = 0;
    std::ostringstream lanes;
    bool first_lane = true;
    std::vector<int> probe_live;
    if (final_boundary) {
      const auto idx = static_cast<std::size_t>(contract.result_lane);
      inferred = access.width_after[static_cast<std::size_t>(b)][idx];
      lanes << contract.result_lane << ":" << inferred;
    } else {
      for (int l = 0; l < kMaxSignals; ++l) {
        const auto idx = static_cast<std::size_t>(l);
        if (!defined[idx]) continue;
        bool read_later = false;
        for (int q = b + 1; q < n && !read_later; ++q) {
          read_later = access.piece[static_cast<std::size_t>(q)].read[idx];
        }
        if (!read_later) continue;
        const int w = access.width_after[static_cast<std::size_t>(b)][idx];
        if (!first_lane) lanes << ",";
        first_lane = false;
        lanes << l << ":" << w;
        inferred += w;
        probe_live.push_back(l);
      }
    }

    const BoundaryBounds* bb = nullptr;
    if (absint != nullptr && absint->annotated) {
      for (const BoundaryBounds& cand : absint->boundaries) {
        if (cand.boundary == b) {
          bb = &cand;
          break;
        }
      }
    }

    const int declared = chain[static_cast<std::size_t>(b)].live_bits;
    if (bb != nullptr) {
      // DL403: lanes the probe observed as live (read downstream) whose
      // demanded-bit mask the sem annotations prove empty — the value is
      // recomputed or ignored past here, so its FFs are waste.
      for (const LaneBound& lb : bb->lanes) {
        if (lb.lane < 0 || lb.lane >= kMaxSignals) continue;
        const auto lidx = static_cast<std::size_t>(lb.lane);
        if (lb.demand != 0) {
          dead_reported[lidx] = false;
          continue;
        }
        const bool is_probe_live =
            std::find(probe_live.begin(), probe_live.end(), lb.lane) !=
            probe_live.end();
        if (!is_probe_live || dead_reported[lidx]) continue;
        dead_reported[lidx] = true;
        std::ostringstream msg;
        msg << "lane " << lb.lane << " is read downstream under the probe, "
            << "but no bit of it is demanded by the sem annotations: provably "
            << "dead from here until it is rewritten";
        Finding f = piece_finding("DL403", subject, chain, b, msg.str());
        f.lane = lb.lane;
        f.boundary = b;
        report.add(f);
      }
      if (bb->exact()) {
        // The sandwich collapsed: static upper bound == concrete witness.
        // The width is known exactly, so the DL201 tolerance is dropped
        // and a deficit is the provable error DL401.
        if (declared < bb->upper) {
          std::ostringstream msg;
          msg << "declares live_bits = " << declared
              << " but the live width is exactly " << bb->upper
              << " — proven: the absint upper bound meets a concrete "
              << "stimulus witness (lanes " << absint_lane_detail(*bb)
              << "); the FF-cost model undercounts by "
              << (bb->upper - declared) << " bits (absint-exact path)";
          Finding f = piece_finding("DL401", subject, chain, b, msg.str());
          f.boundary = b;
          report.add(f);
        } else if (declared > bb->upper && !final_boundary) {
          // The final boundary may legitimately count the flag byte and
          // DONE bit on top of the result lane — widths outside the lane
          // model — so overcount checks stop at internal boundaries.
          std::ostringstream msg;
          msg << "declares live_bits = " << declared
              << " but the live width is exactly " << bb->upper << " (lanes "
              << absint_lane_detail(*bb)
              << "): the FF-cost model overcounts by " << (declared - bb->upper)
              << " bits (absint-exact path)";
          Finding f = piece_finding("DL202", subject, chain, b, msg.str());
          f.boundary = b;
          report.add(f);
        }
      } else {
        // Sandwich open: probe witness lower bound < proven upper bound.
        // The tolerance survives only on this path, against the
        // demand-masked witness.
        if (declared + opts.live_bits_deficit_tol < bb->lower) {
          std::ostringstream msg;
          msg << "declares live_bits = " << declared
              << " but a concrete stimulus demands at least " << bb->lower
              << " live bits (proven upper bound " << bb->upper
              << "): the FF-cost model undercounts by "
              << (bb->lower - declared)
              << " bits (probe-witness path, tolerance "
              << opts.live_bits_deficit_tol << ")";
          Finding f = piece_finding("DL201", subject, chain, b, msg.str());
          f.boundary = b;
          report.add(f);
        } else if (declared > bb->upper && !final_boundary) {
          std::ostringstream msg;
          msg << "declares live_bits = " << declared
              << " above the proven upper bound " << bb->upper << " (lanes "
              << absint_lane_detail(*bb)
              << "): no value can need that many FFs (absint upper-bound "
              << "path)";
          Finding f = piece_finding("DL202", subject, chain, b, msg.str());
          f.boundary = b;
          report.add(f);
        }
      }
      continue;
    }

    if (declared + opts.live_bits_deficit_tol < inferred) {
      std::ostringstream msg;
      msg << "declares live_bits = " << declared
          << " but the inferred live width is " << inferred << " (lanes "
          << lanes.str() << "): the FF-cost model undercounts by "
          << (inferred - declared) << " bits (probe-only path)";
      Finding f = piece_finding("DL201", subject, chain, b, msg.str());
      f.boundary = b;
      report.add(f);
    }
  }
}

bool plan_well_formed(const rtl::PieceChain& chain,
                      const rtl::PipelinePlan& plan) {
  const int n = static_cast<int>(chain.size());
  if (plan.stage_begin.size() < 2) return false;
  if (plan.stage_begin.front() != 0) return false;
  if (plan.stage_begin.back() != n) return false;
  for (std::size_t i = 1; i < plan.stage_begin.size(); ++i) {
    if (plan.stage_begin[i] <= plan.stage_begin[i - 1]) return false;
  }
  return true;
}

}  // namespace

Report lint_chain(const rtl::PieceChain& chain, const ChainContract& contract,
                  const Options& opts) {
  return lint_chain(chain, contract, opts, nullptr);
}

Report lint_chain(const rtl::PieceChain& chain, const ChainContract& contract,
                  const Options& opts, ChainAbsint* out_absint) {
  const std::string& subject = contract.name;
  Report report;
  if (out_absint != nullptr) *out_absint = ChainAbsint{};
  structural_rules(chain, subject, report);

  // Def-use inference executes the evals; a chain with a missing eval (or
  // no pieces) cannot be driven.
  const bool drivable =
      !chain.empty() &&
      std::all_of(chain.begin(), chain.end(),
                  [](const rtl::Piece& p) { return static_cast<bool>(p.eval); });
  if (!drivable || contract.stimuli.empty()) return report;

  const ChainAccess access = infer_chain_access(chain, contract, opts);
  defuse_rules(chain, contract, access, opts, subject, report);

  ChainAbsint absint = analyze_chain(chain, contract, opts);
  if (absint.annotated) {
    report.absint_subjects = 1;
    report.absint_boundaries = static_cast<int>(absint.boundaries.size());
    for (const BoundaryBounds& bb : absint.boundaries) {
      if (bb.exact()) ++report.absint_exact;
    }
    report.absint_checks = absint.containment_checks;
    report.merge(absint.findings);
  }
  live_bits_rules(chain, contract, access, opts, subject,
                  absint.annotated ? &absint : nullptr, report);
  if (out_absint != nullptr) *out_absint = std::move(absint);
  return report;
}

Report check_timing_claim(const rtl::PieceChain& chain,
                          const rtl::PipelinePlan& plan,
                          const device::TechModel& tech,
                          const rtl::Timing& claimed,
                          const std::string& subject) {
  Report report;
  if (!plan_well_formed(chain, plan)) return report;
  double critical = 0.0;
  int critical_stage = 0;
  for (int s = 0; s < plan.stages(); ++s) {
    const double d =
        rtl::segment_delay(chain, plan.stage_begin[static_cast<std::size_t>(s)],
                           plan.stage_begin[static_cast<std::size_t>(s + 1)]);
    if (d > critical) {
      critical = d;
      critical_stage = s;
    }
  }
  const double period = critical + tech.register_overhead_ns();
  const auto close = [](double a, double b) {
    return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
  };
  std::ostringstream msg;
  if (!close(claimed.critical_ns, critical) ||
      claimed.critical_stage != critical_stage) {
    msg << "claimed critical stage " << claimed.critical_stage << " at "
        << claimed.critical_ns << " ns, but recomputing segment_delay gives "
        << "stage " << critical_stage << " at " << critical << " ns";
    Finding f = make_finding("DL304", subject, msg.str());
    f.boundary = claimed.critical_stage;
    report.add(f);
  } else if (!close(claimed.period_ns, period) ||
             !close(claimed.freq_mhz, 1000.0 / period)) {
    msg << "claimed period " << claimed.period_ns << " ns / "
        << claimed.freq_mhz << " MHz, but critical + register overhead gives "
        << period << " ns / " << 1000.0 / period << " MHz";
    report.add(make_finding("DL304", subject, msg.str()));
  }
  return report;
}

Report check_area_claim(const rtl::PieceChain& chain,
                        const rtl::PipelinePlan& plan,
                        const rtl::AreaBreakdown& claimed,
                        const std::string& subject) {
  Report report;
  if (!plan_well_formed(chain, plan)) return report;
  // Register bits from the declarations: the live width at each internal
  // cut, the output register, and the 1-bit DONE shift per stage.
  int ffs = 0;
  for (int s = 1; s < plan.stages(); ++s) {
    ffs += chain[static_cast<std::size_t>(
                     plan.stage_begin[static_cast<std::size_t>(s)] - 1)]
               .live_bits;
  }
  ffs += chain.back().live_bits;
  ffs += plan.stages();
  std::ostringstream msg;
  if (claimed.pipeline_ffs != ffs) {
    msg << "claimed " << claimed.pipeline_ffs << " pipeline FFs, but the "
        << "live_bits declarations at the plan's cuts total " << ffs;
    report.add(make_finding("DL306", subject, msg.str()));
  } else if (claimed.total.ffs != claimed.pipeline_ffs ||
             claimed.absorbed_ffs < 0 ||
             claimed.absorbed_ffs > claimed.pipeline_ffs) {
    msg << "FF breakdown is inconsistent: total.ffs = " << claimed.total.ffs
        << ", pipeline_ffs = " << claimed.pipeline_ffs << ", absorbed_ffs = "
        << claimed.absorbed_ffs;
    report.add(make_finding("DL306", subject, msg.str()));
  }
  return report;
}

Report lint_plan(const rtl::PieceChain& chain, const rtl::PipelinePlan& plan,
                 const device::TechModel& tech, device::Objective objective,
                 const std::string& subject, const Options& opts) {
  (void)opts;
  Report report;
  const int n = static_cast<int>(chain.size());
  if (!plan_well_formed(chain, plan)) {
    std::ostringstream msg;
    msg << "stage_begin [";
    for (std::size_t i = 0; i < plan.stage_begin.size(); ++i) {
      msg << (i != 0 ? " " : "") << plan.stage_begin[i];
    }
    msg << "] must rise strictly from 0 to " << n;
    report.add(make_finding("DL301", subject, msg.str()));
    return report;
  }
  for (int s = 1; s < plan.stages(); ++s) {
    const int b = plan.stage_begin[static_cast<std::size_t>(s)];
    if (!chain[static_cast<std::size_t>(b - 1)].cut_after) {
      std::ostringstream msg;
      msg << "stage " << s << " begins after piece "
          << chain[static_cast<std::size_t>(b - 1)].name
          << ", which declares cut_after = false";
      Finding f = piece_finding("DL302", subject, chain, b - 1, msg.str());
      f.boundary = b - 1;
      report.add(f);
    }
  }
  report.merge(check_timing_claim(chain, plan, tech,
                                  rtl::evaluate_timing(chain, plan, tech),
                                  subject));
  report.merge(check_area_claim(
      chain, plan, rtl::evaluate_area(chain, plan, tech, objective), subject));
  return report;
}

Report check_depth_claim(int realized, int requested, int max_stages,
                         int latency, int plan_stages,
                         const std::string& subject) {
  Report report;
  const int expected = std::clamp(requested, 1, max_stages);
  if (realized != expected) {
    std::ostringstream msg;
    msg << "realized depth " << realized << " but the requested depth "
        << requested << " clamps to " << expected << " (max " << max_stages
        << ")";
    report.add(make_finding("DL303", subject, msg.str()));
  }
  if (latency != plan_stages) {
    std::ostringstream msg;
    msg << "declared latency " << latency << " cycles but the plan has "
        << plan_stages << " stages (one register level per stage)";
    report.add(make_finding("DL305", subject, msg.str()));
  }
  return report;
}

namespace {

fp::u64 splitmix64(fp::u64& state) {
  fp::u64 z = (state += 0x9E3779B97F4A7C15);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EB;
  return z ^ (z >> 31);
}

}  // namespace

Report lint_unit(const units::FpUnit& unit, const Options& opts) {
  const rtl::PieceChain& chain = unit.pieces();
  ChainContract contract;
  contract.name = unit.name();
  contract.input_lanes = {units::detail::kLaneInA, units::detail::kLaneInB,
                          units::detail::kLaneInCtl, units::detail::kLaneInC};
  const int in_bits = unit.format().total_bits();
  contract.input_widths = {in_bits, in_bits, 1, in_bits};
  contract.result_lane = units::detail::kLaneResult;
  const std::vector<units::UnitInput> workload = fault::campaign_workload(
      unit.kind(), unit.format(), opts.vectors, opts.seed);
  for (const units::UnitInput& in : workload) {
    rtl::SignalSet s;
    s[units::detail::kLaneInA] = in.a;
    s[units::detail::kLaneInB] = in.b;
    s[units::detail::kLaneInCtl] = in.subtract ? 1 : 0;
    s[units::detail::kLaneInC] = in.c;
    contract.stimuli.push_back(s);
  }

  Report report = lint_chain(chain, contract, opts);
  report.merge(lint_plan(chain, unit.plan(), unit.config().tech,
                         unit.config().objective, contract.name, opts));
  report.merge(check_depth_claim(unit.stages(), unit.config().stages,
                                 rtl::max_stages(chain), unit.latency(),
                                 unit.plan().stages(), contract.name));
  return report;
}

Report lint_converter(const units::FormatConverter& cvt, const Options& opts) {
  const rtl::PieceChain& chain = cvt.pieces();
  ChainContract contract;
  contract.name = cvt.name();
  contract.input_lanes = {0};
  contract.input_widths = {cvt.src().total_bits()};
  contract.result_lane = 0;
  fp::u64 rng = opts.seed * 0x9E3779B97F4A7C15 + 1;
  for (int i = 0; i < opts.vectors; ++i) {
    rtl::SignalSet s;
    s[0] = splitmix64(rng) & cvt.src().bits_mask();
    contract.stimuli.push_back(s);
  }

  Report report = lint_chain(chain, contract, opts);
  report.merge(lint_plan(chain, cvt.plan(), cvt.config().tech,
                         cvt.config().objective, contract.name, opts));
  report.merge(check_depth_claim(cvt.stages(), cvt.config().stages,
                                 rtl::max_stages(chain), cvt.latency(),
                                 cvt.plan().stages(), contract.name));
  return report;
}

}  // namespace flopsim::lint
