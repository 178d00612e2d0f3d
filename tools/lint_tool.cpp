// flopsim-lint: the datapath lint gate over the generated-core zoo.
//
// With no positional arguments it sweeps every unit kind at every paper
// precision and lints each at its min / opt / max pipeline depth (the
// depths the paper actually fields), plus every format-converter pair —
// the pre-synthesis check CI runs before a unit ships. A single core can
// be linted the same way flopsim-gen names one.
//
// Usage:
//   flopsim-lint [--fast] [--notes] [--vectors=<n>] [--seed=<n>]
//                [--rules=<spec>] [speed] [ieee] [fabric]
//                [--threads=<n>] [--json <path>]
//   flopsim-lint <add|mul|div|sqrt|mac> <16|32|48|64> [stages] [...]
//   flopsim-lint cvt <src-bits> <dst-bits> [stages]
//
// --fast skips the depth sweeps (lints depths {1, max} only) and drops to
// 8 stimulus vectors — the pre-commit loop. --rules= filters findings by
// rule ID or family ("DL201,DL4xx", '-' prefix excludes); an ID matching
// no known rule is a usage error. The abstract-interpretation engine
// always runs; the last line reports how many subjects it sandwiched.
// --json appends one JSON-lines finding per line plus a summary object
// (the CI artifact). Exit status: 0 clean, 1 error-severity findings (or
// I/O failure), 2 bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cctype>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "analysis/pareto.hpp"
#include "analysis/sweep.hpp"
#include "lint/lint.hpp"
#include "lint/report.hpp"
#include "obs/cli.hpp"
#include "units/converter_unit.hpp"
#include "units/fp_unit.hpp"

namespace {

using namespace flopsim;

void print_usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [--fast] [--notes] [--vectors=<n>] [--seed=<n>] "
               "[--rules=<spec>] [speed] [ieee] [fabric] "
               "[--threads=<n>] [--json <path>]\n"
               "       %s <add|mul|div|sqrt|mac> <16|32|48|64> [stages] "
               "[speed] [ieee] [fabric]\n"
               "       %s cvt <src-bits> <dst-bits> [stages]\n",
               prog, prog, prog);
}

fp::FpFormat format_of(const std::string& bits) {
  if (bits == "32") return fp::FpFormat::binary32();
  if (bits == "48") return fp::FpFormat::binary48();
  if (bits == "64") return fp::FpFormat::binary64();
  if (bits == "16") return fp::FpFormat::binary16();
  throw std::invalid_argument("unknown precision: " + bits);
}

int parse_stages(const std::string& tok) {
  const std::optional<long> n = obs::parse_int_arg(tok, 1, 10000);
  if (!n.has_value()) throw std::invalid_argument("bad stage count: " + tok);
  return static_cast<int>(*n);
}

units::UnitKind kind_of(const std::string& op) {
  if (op == "add") return units::UnitKind::kAdder;
  if (op == "mul") return units::UnitKind::kMultiplier;
  if (op == "div") return units::UnitKind::kDivider;
  if (op == "sqrt") return units::UnitKind::kSqrt;
  if (op == "mac") return units::UnitKind::kMac;
  throw std::invalid_argument("unknown operation: " + op);
}

struct ToolOptions {
  lint::Options lint;
  units::UnitConfig cfg;
  lint::RuleFilter rules;
  bool fast = false;
};

/// Consume the flags every mode shares. Positional tokens survive in
/// order; throws std::invalid_argument on a malformed value.
std::vector<std::string> take_flags(const std::vector<std::string>& rest,
                                    ToolOptions& opts) {
  std::vector<std::string> positional;
  for (const std::string& tok : rest) {
    if (tok == "--fast") {
      opts.fast = true;
      opts.lint.vectors = 8;
    } else if (tok == "--notes") {
      opts.lint.notes = true;
    } else if (tok.rfind("--rules=", 0) == 0) {
      // RuleFilter::parse throws on an unknown ID -> usage exit below.
      opts.rules = lint::RuleFilter::parse(tok.substr(8));
    } else if (tok.rfind("--vectors=", 0) == 0) {
      // atoi() accepted "--vectors=3x" as 3; the checked parse does not.
      const std::optional<long> n =
          obs::parse_int_arg(tok.substr(10), 1, 1 << 20);
      if (!n.has_value()) {
        throw std::invalid_argument("bad vector count: " + tok);
      }
      opts.lint.vectors = static_cast<int>(*n);
    } else if (tok.rfind("--seed=", 0) == 0) {
      const std::string value = tok.substr(7);
      if (value.empty() ||
          value.find_first_not_of("0123456789") != std::string::npos) {
        throw std::invalid_argument("bad seed: " + tok);
      }
      opts.lint.seed =
          static_cast<std::uint64_t>(std::strtoull(value.c_str(), nullptr,
                                                   10));
    } else if (tok == "speed") {
      opts.cfg.objective = device::Objective::kSpeed;
    } else if (tok == "ieee") {
      opts.cfg.ieee_mode = true;
    } else if (tok == "fabric") {
      opts.cfg.use_embedded_multipliers = false;
    } else if (tok.rfind("--", 0) == 0) {
      throw std::invalid_argument("unknown flag: " + tok);
    } else {
      positional.push_back(tok);
    }
  }
  return positional;
}

struct Tally {
  lint::Report all;
  int subjects = 0;

  void fold(const lint::Report& r) {
    lint::Report copy = r;
    all.merge(std::move(copy));
    ++subjects;
  }
};

void lint_one_unit(units::UnitKind kind, fp::FpFormat fmt, int stages,
                   const ToolOptions& opts, Tally& tally) {
  units::UnitConfig cfg = opts.cfg;
  cfg.stages = stages;
  const units::FpUnit unit(kind, fmt, cfg);
  tally.fold(lint::lint_unit(unit, opts.lint));
}

void lint_one_cvt(fp::FpFormat src, fp::FpFormat dst, int stages,
                  const ToolOptions& opts, Tally& tally) {
  units::UnitConfig cfg = opts.cfg;
  cfg.stages = stages;
  const units::FormatConverter cvt(src, dst, cfg);
  tally.fold(lint::lint_converter(cvt, opts.lint));
}

/// The CI gate: every kind x paper precision at its min/opt/max depth
/// (--fast: depths {1, max} with no sweep), plus every converter pair.
int sweep_zoo(const ToolOptions& opts, int threads, Tally& tally) {
  static constexpr units::UnitKind kKinds[] = {
      units::UnitKind::kAdder, units::UnitKind::kMultiplier,
      units::UnitKind::kDivider, units::UnitKind::kSqrt,
      units::UnitKind::kMac};
  int cores = 0;
  for (units::UnitKind kind : kKinds) {
    for (const fp::FpFormat& fmt : analysis::paper_formats()) {
      std::set<int> depths;
      if (opts.fast) {
        units::UnitConfig probe_cfg = opts.cfg;
        probe_cfg.stages = 1;
        const units::FpUnit probe(kind, fmt, probe_cfg);
        depths = {1, probe.max_stages()};
      } else {
        const analysis::SweepResult sweep = analysis::sweep_unit(
            kind, fmt, opts.cfg.objective, opts.cfg.tech, threads);
        const analysis::Selection sel = analysis::select_min_max_opt(sweep);
        depths = {sel.min.stages, sel.opt.stages, sel.max.stages};
      }
      for (int d : depths) {
        lint_one_unit(kind, fmt, d, opts, tally);
        ++cores;
      }
    }
  }
  for (const fp::FpFormat& src : analysis::paper_formats()) {
    for (const fp::FpFormat& dst : analysis::paper_formats()) {
      if (src.total_bits() == dst.total_bits()) continue;
      units::UnitConfig probe_cfg = opts.cfg;
      probe_cfg.stages = 1;
      const units::FormatConverter probe(src, dst, probe_cfg);
      for (int d : std::set<int>{1, probe.max_stages()}) {
        lint_one_cvt(src, dst, d, opts, tally);
        ++cores;
      }
    }
  }
  return cores;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flopsim;
  const obs::CliArgs cli = obs::parse_cli(argc, argv);
  if (!cli.ok()) {
    std::fprintf(stderr, "error: bad argument: %s\n", cli.error.c_str());
    print_usage(argv[0]);
    return obs::kExitUsage;
  }
  // The lint gate has no campaign and finishes in seconds: every
  // resilience flag is a usage error here.
  if (cli.wants_resilience()) {
    std::fprintf(stderr,
                 "error: --checkpoint=/--resume/--time-budget=/"
                 "--trial-budget=/--stop-halfwidth= only apply to campaign "
                 "benches\n");
    print_usage(argv[0]);
    return obs::kExitUsage;
  }
  try {
    ToolOptions opts;
    const std::vector<std::string> positional = take_flags(cli.rest, opts);

    Tally tally;
    if (positional.empty()) {
      const int cores = sweep_zoo(opts, cli.threads, tally);
      std::printf("linted %d cores (%d subjects)\n", cores, tally.subjects);
    } else if (positional[0] == "cvt") {
      if (positional.size() < 3) {
        throw std::invalid_argument("cvt needs <src> <dst>");
      }
      const int stages =
          positional.size() > 3 ? parse_stages(positional[3]) : 1;
      lint_one_cvt(format_of(positional[1]), format_of(positional[2]), stages,
                   opts, tally);
    } else {
      if (positional.size() < 2) {
        throw std::invalid_argument("need <op> <bits>");
      }
      const units::UnitKind kind = kind_of(positional[0]);
      const fp::FpFormat fmt = format_of(positional[1]);
      const int stages =
          positional.size() > 2 ? parse_stages(positional[2]) : 1;
      lint_one_unit(kind, fmt, stages, opts, tally);
    }

    lint::apply_rule_filter(tally.all, opts.rules);
    lint::write_text(std::cout, tally.all, opts.lint.notes);
    // CI greps this line: both numbers equal means the sandwich held on
    // every linted subject (no chain fell back to probe-only).
    std::printf("absint sandwich: %d/%d subjects covered\n",
                tally.all.absint_subjects, tally.subjects);
    if (!cli.json_path.empty()) {
      std::ofstream out(cli.json_path, std::ios::app);
      if (!out) {
        std::fprintf(stderr, "error: could not write %s\n",
                     cli.json_path.c_str());
        return obs::kExitRuntime;
      }
      lint::write_jsonl(out, tally.all, opts.lint.notes);
    }
    return tally.all.clean() ? obs::kExitOk : obs::kExitRuntime;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    print_usage(argv[0]);
    return obs::kExitUsage;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return obs::kExitRuntime;
  }
}
