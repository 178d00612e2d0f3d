// flopsim-gen: a command-line floating-point core generator, in the spirit
// of the FPU generation tools the paper cites (Liang, Tessier & Mencer,
// FCCM'03). Prints a full "datasheet" for a requested core: the piece
// chain, the register placement at the requested depth, timing, area,
// power, and the depth sweep with the recommended (opt) configuration.
//
// Usage:
//   flopsim-gen <add|mul|div|sqrt|mac> <32|48|64> [stages] [area|speed]
//               [ieee] [fabric] [--harden=<parity|residue|dup|tmr|ecc>]
//               [--threads=<n>] [--vcd=<path>] [--metrics=<path>]
//               [--trace=<path>]
//   flopsim-gen cvt <src-bits> <dst-bits> [stages]
//
// --threads= sets the worker count for the depth sweep behind the opt
// recommendation (0/absent = auto via FLOPSIM_THREADS, then hardware
// concurrency); the sweep is bit-identical at any thread count.
// --backend= is accepted (and its value validated) for flag-compatibility
// with the campaign benches, but there is no Monte-Carlo campaign here so
// the choice has no effect on the datasheet.
// --vcd= drives a deterministic calibration workload through the core and
// dumps the stage-register waveform (GTKWave-loadable VCD); the same run
// feeds the pipeline occupancy metrics that --metrics= exports. Flag
// parsing is shared with the campaign benches (obs::parse_cli).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/pareto.hpp"
#include "analysis/report.hpp"
#include "analysis/sweep.hpp"
#include "exec/cancel.hpp"
#include "fault/campaign.hpp"
#include "fault/hardening.hpp"
#include "lint/lint.hpp"
#include "lint/report.hpp"
#include "obs/cli.hpp"
#include "obs/probe.hpp"
#include "obs/trace.hpp"
#include "power/unit_power.hpp"
#include "rtl/trace.hpp"
#include "units/converter_unit.hpp"

namespace {

using namespace flopsim;

void print_usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s <add|mul|div|sqrt|mac> <16|32|48|64> [stages] "
               "[area|speed] [ieee] [fabric] [--lint] "
               "[--harden=<parity|residue|dup|tmr|ecc>] [--threads=<n>] "
               "[--backend=<interpreted|compiled>] "
               "[--vcd=<path>] [--metrics=<path>] [--trace=<path>]\n"
               "       %s cvt <src-bits> <dst-bits> [stages]\n",
               prog, prog);
}

fp::FpFormat format_of(const std::string& bits) {
  if (bits == "32") return fp::FpFormat::binary32();
  if (bits == "48") return fp::FpFormat::binary48();
  if (bits == "64") return fp::FpFormat::binary64();
  if (bits == "16") return fp::FpFormat::binary16();
  throw std::invalid_argument("unknown precision: " + bits);
}

void print_datasheet(const units::FpUnit& unit) {
  const rtl::Timing t = unit.timing();
  const rtl::AreaBreakdown a = unit.area();
  std::printf("%s\n", unit.name().c_str());
  std::printf("  stages       %d (max %d)\n", unit.stages(),
              unit.max_stages());
  std::printf("  clock        %.1f MHz (critical stage %d: %.2f ns)\n",
              t.freq_mhz, t.critical_stage, t.critical_ns);
  std::printf("  area         %s\n", a.total.to_string().c_str());
  std::printf("  registers    %d FFs (%d absorbed into logic slices)\n",
              a.pipeline_ffs, a.absorbed_ffs);
  std::printf("  freq/area    %.4f MHz/slice\n", unit.freq_per_area());
  std::printf("  power        %.1f mW @ 100 MHz\n\n",
              power::unit_power(unit, 100.0).total_mw());

  // Piece chain with the register placement.
  const rtl::PieceChain& pieces = unit.pieces();
  const rtl::PipelinePlan& plan = unit.plan();
  std::printf("  pipeline plan (|| = register):\n    ");
  int stage = 0;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (stage + 1 < plan.stages() &&
        static_cast<int>(i) == plan.stage_begin[stage + 1]) {
      std::printf("|| ");
      ++stage;
    }
    std::printf("%s ", pieces[i].name.c_str());
  }
  std::printf("||\n\n");
}

/// Drive the calibration workload through a clone of `unit`, capturing the
/// waveform for --vcd= and folding the run's per-stage occupancy into the
/// metrics registry for --metrics=. Skipped when neither flag is given.
int run_capture_workload(const units::FpUnit& unit, const obs::CliArgs& cli) {
  if (cli.vcd_path.empty() && cli.metrics_path.empty()) return 0;
  auto span = obs::Tracer::global().span("capture_workload", "tool");
  constexpr int kVectors = 32;
  units::FpUnit probe = unit.clone();
  const std::vector<units::UnitInput> workload = fault::campaign_workload(
      probe.kind(), probe.format(), kVectors, /*seed=*/1);
  rtl::TraceRecorder recorder;
  const int total = kVectors + probe.latency() + 2;
  for (int t = 0; t < total; ++t) {
    if (t < kVectors) {
      probe.step(workload[static_cast<std::size_t>(t)]);
    } else {
      probe.step(std::nullopt);
    }
    if (!cli.vcd_path.empty()) recorder.capture(probe.sim());
  }
  obs::record_unit_occupancy(
      obs::Registry::global(),
      std::string("pipeline.") + units::to_string(probe.kind()) + "." +
          probe.format().name(),
      probe);
  if (!cli.vcd_path.empty()) {
    std::ofstream out(cli.vcd_path);
    if (!out) {
      std::fprintf(stderr, "error: could not write %s\n",
                   cli.vcd_path.c_str());
      return 1;
    }
    recorder.dump_vcd(out, "flopsim_gen");
    std::printf("  waveform     %s (%ld cycles)\n\n", cli.vcd_path.c_str(),
                recorder.cycles());
  }
  return 0;
}

int generate_arith(const obs::CliArgs& cli, const char* prog) {
  const std::vector<std::string>& args = cli.rest;
  const std::string& op = args[0];
  units::UnitKind kind;
  if (op == "add") {
    kind = units::UnitKind::kAdder;
  } else if (op == "mul") {
    kind = units::UnitKind::kMultiplier;
  } else if (op == "div") {
    kind = units::UnitKind::kDivider;
  } else if (op == "sqrt") {
    kind = units::UnitKind::kSqrt;
  } else if (op == "mac") {
    kind = units::UnitKind::kMac;
  } else {
    throw std::invalid_argument("unknown operation: " + op);
  }
  const fp::FpFormat fmt = format_of(args[1]);

  units::UnitConfig cfg;
  std::optional<fault::Scheme> harden;
  bool run_lint = false;
  const bool explicit_stages =
      args.size() > 2 && std::isdigit(static_cast<unsigned char>(args[2][0]));
  if (explicit_stages) {
    // A digit-leading token is a stage count or a mistake — "3x" used to
    // atoi() to 3 silently; now it is a usage error.
    const std::optional<long> stages = obs::parse_int_arg(args[2], 1, 10000);
    if (!stages.has_value()) {
      throw std::invalid_argument("bad stage count: " + args[2]);
    }
    cfg.stages = static_cast<int>(*stages);
  }
  for (std::size_t i = 2; i < args.size(); ++i) {
    if (args[i] == "--lint") {
      run_lint = true;
    } else if (args[i] == "speed") {
      cfg.objective = device::Objective::kSpeed;
    } else if (args[i] == "area") {
      cfg.objective = device::Objective::kArea;
    } else if (args[i] == "ieee") {
      cfg.ieee_mode = true;  // denormal + NaN hardware
    } else if (args[i] == "fabric") {
      cfg.use_embedded_multipliers = false;  // LUT mantissa multiplier
    } else if (args[i].rfind("--harden=", 0) == 0) {
      harden = fault::try_parse_scheme(args[i].substr(9));
      if (!harden.has_value()) {
        std::fprintf(stderr, "error: unknown hardening scheme: %s\n",
                     args[i].c_str() + 9);
        print_usage(prog);
        return obs::kExitUsage;
      }
    } else if (i == 2 && explicit_stages) {
      // already consumed as the stage count
    } else {
      throw std::invalid_argument("unknown argument: " + args[i]);
    }
  }

  // If no stage count given, recommend the freq/area optimum.
  const analysis::SweepResult sweep = analysis::sweep_unit(
      kind, fmt, cfg.objective, device::TechModel::virtex2pro7(),
      cli.threads, &exec::global_cancel_token());
  const analysis::Selection sel = analysis::select_min_max_opt(sweep);
  if (cfg.stages == 1 && !explicit_stages) {
    cfg.stages = sel.opt.stages;
    std::printf("(no depth given: using the freq/area optimum, %d stages)\n\n",
                cfg.stages);
  }

  const units::FpUnit unit(kind, fmt, cfg);
  print_datasheet(unit);
  const int capture_rc = run_capture_workload(unit, cli);
  if (capture_rc != 0) return capture_rc;

  int lint_rc = 0;
  if (run_lint) {
    const lint::Report report = lint::lint_unit(unit);
    std::printf("  lint:\n");
    std::ostringstream lint_out;
    lint::write_text(lint_out, report);
    std::printf("%s\n", lint_out.str().c_str());
    if (!report.clean()) lint_rc = 1;
  }

  if (harden.has_value()) {
    const fault::HardeningCost h = fault::hardening_cost(unit, *harden);
    std::printf("  hardened (%s):\n", fault::to_string(*harden));
    std::printf("    area       %s (x%.2f)\n", h.total.to_string().c_str(),
                h.area_factor);
    std::printf("    clock      %.1f MHz (x%.2f)\n", h.freq_mhz,
                h.freq_factor);
    std::printf("    power      %.1f mW @ 100 MHz (x%.2f)\n", h.power_mw_100,
                h.power_factor);
    std::printf("    latency    +%d cycle(s)\n\n", h.extra_latency_cycles);
  }

  std::printf("  depth sweep: min s=%d %.0fMHz/%dsl | opt s=%d %.0fMHz/%dsl "
              "| max s=%d %.0fMHz/%dsl\n",
              sel.min.stages, sel.min.freq_mhz, sel.min.area.slices,
              sel.opt.stages, sel.opt.freq_mhz, sel.opt.area.slices,
              sel.max.stages, sel.max.freq_mhz, sel.max.area.slices);
  return lint_rc;
}

int generate_cvt(const std::vector<std::string>& args) {
  if (args.size() < 3) throw std::invalid_argument("cvt needs <src> <dst>");
  if (args.size() > 4) {
    throw std::invalid_argument("unknown argument: " + args[4]);
  }
  const fp::FpFormat src = format_of(args[1]);
  const fp::FpFormat dst = format_of(args[2]);
  units::UnitConfig cfg;
  if (args.size() > 3) {
    const std::optional<long> stages = obs::parse_int_arg(args[3], 1, 10000);
    if (!stages.has_value()) {
      throw std::invalid_argument("bad stage count: " + args[3]);
    }
    cfg.stages = static_cast<int>(*stages);
  }
  const units::FormatConverter cvt(src, dst, cfg);
  const rtl::Timing t = cvt.timing();
  std::printf("%s\n", cvt.name().c_str());
  std::printf("  stages     %d (max %d)\n", cvt.stages(), cvt.max_stages());
  std::printf("  clock      %.1f MHz (critical %.2f ns)\n", t.freq_mhz,
              t.critical_ns);
  std::printf("  area       %s\n", cvt.area().total.to_string().c_str());
  return 0;
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
  // No Monte-Carlo campaign here, so there is nothing to checkpoint or
  // sample-bound; only the wall-clock budget applies (to the depth sweep).
  if (!cli.checkpoint_dir.empty() || cli.resume || cli.trial_budget > 0 ||
      cli.stop_half_width > 0.0) {
    std::fprintf(stderr,
                 "error: --checkpoint=/--resume/--trial-budget=/"
                 "--stop-halfwidth= only apply to campaign benches\n");
    print_usage(argv[0]);
    return obs::kExitUsage;
  }
  if (cli.rest.size() < 2) {
    print_usage(argv[0]);
    return obs::kExitUsage;
  }
  obs::init_observability(cli);
  exec::install_signal_handlers();
  if (cli.time_budget_s > 0.0) {
    exec::global_cancel_token().set_deadline_after(cli.time_budget_s);
  }
  try {
    int rc;
    if (cli.rest[0] == "cvt") {
      rc = generate_cvt(cli.rest);
    } else {
      rc = generate_arith(cli, argv[0]);
    }
    if (rc == 0 && !obs::flush_observability(cli)) rc = obs::kExitRuntime;
    return rc;
  } catch (const exec::Interrupted& e) {
    std::fprintf(stderr, "interrupted (%s): depth sweep abandoned\n",
                 exec::to_string(e.reason));
    return obs::kExitInterrupted;
  } catch (const std::invalid_argument& e) {
    // Bad op/precision/scheme names land here: report, show usage, exit 2.
    std::fprintf(stderr, "error: %s\n", e.what());
    print_usage(argv[0]);
    return obs::kExitUsage;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return obs::kExitRuntime;
  }
}
