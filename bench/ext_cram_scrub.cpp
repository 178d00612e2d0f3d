// Extension: configuration-memory upsets and what bounds them. The SEU
// bench treats user state (pipeline latches, BRAM words); on an SRAM FPGA
// the larger target is the configuration memory holding the design itself,
// and a strike there persists until scrubbed. This bench reports the
// essential-bit footprint and raw CRAM FIT of the paper's units, sweeps
// the scrub period to show exposure turning into a bounded window, re-runs
// the reliability-constrained min/max/opt selection with the CRAM term
// included, simulates the matmul kernel under accumulator + latch +
// persistent-config faults per storage scheme (SECDED accumulators vs
// bare), and prices ECC against duplication.
//
// Usage: ext_cram_scrub [--scheme=<none|ecc>] [--threads=<n>]
//                       [--backend=<b>] [--csv <dir>] [--json <path>]
//                       [--metrics=<path>] [--trace=<path>]
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "analysis/pareto.hpp"
#include "analysis/seu.hpp"
#include "bench_util.hpp"
#include "exec/cancel.hpp"
#include "obs/cli.hpp"
#include "rtl/evaluator.hpp"
#include "run_policy.hpp"

namespace {

using namespace flopsim;

std::string unit_title(units::UnitKind kind, fp::FpFormat fmt) {
  return std::string(units::to_string(kind)) + "<" + fmt.name() + ">";
}

// Scrub periods swept everywhere, seconds; 0 = scrubbing off.
const std::vector<double> kScrubPeriods{0.0, 1.0, 0.1, 0.01, 1e-3, 1e-4};
// Mission profile: the kernel streams 10% of wall time in 1 ms bursts, so
// an upset scrubbed before the next burst never corrupts output.
constexpr double kDuty = 0.1;

analysis::Table essential_bits_table(int threads) {
  const fault::CramModel cram;
  const analysis::CramRateModel rate;  // scrub off: mission/2 exposure
  analysis::Table t(
      "Essential configuration bits at opt depth (scrub off)",
      {"unit", "stages", "slices", "bmults", "ess. bits", "ess. Mbit",
       "CRAM FIT"});
  for (const fp::FpFormat fmt :
       {fp::FpFormat::binary32(), fp::FpFormat::binary64()}) {
    for (const units::UnitKind kind :
         {units::UnitKind::kAdder, units::UnitKind::kMultiplier}) {
      const analysis::SweepResult sweep = analysis::sweep_unit(
          kind, fmt, device::Objective::kArea,
          device::TechModel::virtex2pro7(), threads);
      const analysis::Selection sel = analysis::select_min_max_opt(sweep);
      const device::Resources area = sel.opt.area;
      t.add_row({unit_title(kind, fmt),
                 analysis::Table::num(static_cast<long>(sel.opt.stages)),
                 analysis::Table::num(static_cast<long>(area.slices)),
                 analysis::Table::num(static_cast<long>(area.bmults)),
                 analysis::Table::num(cram.essential_bits(area), 0),
                 analysis::Table::num(cram.essential_mbit(area), 4),
                 analysis::Table::num(rate.fit(area), 2)});
    }
  }
  return t;
}

analysis::Table fit_vs_scrub_table(int threads) {
  const analysis::SweepResult sweep = analysis::sweep_unit(
      units::UnitKind::kMultiplier, fp::FpFormat::binary64(),
      device::Objective::kArea, device::TechModel::virtex2pro7(), threads);
  const analysis::Selection sel = analysis::select_min_max_opt(sweep);
  const analysis::SeuRateModel latch_rate;

  analysis::Table t(
      "FIT vs scrub period — mult<binary64>/s" +
          std::to_string(sel.opt.stages),
      {"scrub period s", "P(observe)", "CRAM FIT", "latch FIT", "total FIT"});
  for (double period : kScrubPeriods) {
    analysis::CramRateModel rate;
    rate.scrub.period_s = period;
    rate.scrub.duty = kDuty;
    const double cram_fit = rate.fit(sel.opt.area);
    const double latch_fit = latch_rate.fit(sel.opt.pipeline_ffs, 1.0);
    t.add_row({period > 0.0 ? analysis::Table::num(period, 4) : "off",
               analysis::Table::num(
                   rate.scrub.observe_probability(rate.mission_s), 4),
               analysis::Table::num(cram_fit, 2),
               analysis::Table::num(latch_fit, 2),
               analysis::Table::num(cram_fit + latch_fit, 2)});
  }
  return t;
}

analysis::Table reliable_selection_cram_table(int threads) {
  const analysis::SeuRateModel latch_rate;
  analysis::Table t(
      "min/max/opt with latch + CRAM FIT constraint (binary64 mult)",
      {"scrub period s", "FIT cap", "capped stages", "CRAM FIT", "total FIT",
       "feasible"});
  const analysis::SweepResult sweep = analysis::sweep_unit(
      units::UnitKind::kMultiplier, fp::FpFormat::binary64(),
      device::Objective::kArea, device::TechModel::virtex2pro7(), threads);
  const analysis::Selection sel = analysis::select_min_max_opt(sweep);
  // Same cap the SEU bench uses for the latch-only selection: with the
  // CRAM term added, only aggressive scrubbing can make it feasible again.
  const double cap = latch_rate.fit(sel.opt.pipeline_ffs, 1.0) * 0.6;
  for (double period : kScrubPeriods) {
    analysis::CramRateModel rate;
    rate.scrub.period_s = period;
    rate.scrub.duty = kDuty;
    const analysis::ReliableSelection rs = analysis::select_min_max_opt_reliable(
        sweep, cap, latch_rate, 1.0, rate);
    t.add_row({period > 0.0 ? analysis::Table::num(period, 4) : "off",
               analysis::Table::num(cap, 2),
               analysis::Table::num(static_cast<long>(rs.opt.stages)),
               analysis::Table::num(rs.cram_fit_at_opt, 2),
               analysis::Table::num(rs.fit_at_opt, 2),
               rs.feasible ? "yes" : "no"});
  }
  return t;
}

analysis::Table kernel_sdc_table(const std::vector<fault::Scheme>& schemes,
                                 bench::CampaignJournal& journal,
                                 bench::RunPolicy& policy) {
  analysis::Table t(
      "Matmul kernel SDC by storage scheme (n=4, binary32, acc+latch+config)",
      {"scheme", "scrub cyc", "injected", "masked", "corrected", "detected",
       "silent", "acc SDC", "latch SDC", "config SDC"});
  for (const fault::Scheme scheme : schemes) {
    for (const long scrub : {0L, 16L}) {
      kernel::PeConfig cfg;
      cfg.adder_stages = 8;
      cfg.mult_stages = 5;
      analysis::MatmulSeuConfig camp;
      camp.faults = 24;
      camp.scheme = scheme;
      camp.config_fraction = 0.25;
      camp.scrub_period_cycles = scrub;
      camp.threads = journal.threads();
      const std::string name = std::string("cram_matmul_campaign:") +
                               fault::to_string(scheme) + ":scrub" +
                               std::to_string(scrub);
      const analysis::MatmulSeuResult r = journal.time(
          name,
          camp.faults + static_cast<long>(camp.config_fraction * camp.faults +
                                          0.5),
          [&] {
            return analysis::run_matmul_campaign(cfg, camp, policy.control());
          });
      policy.note_matmul(name, r);
      journal.note_dropped(r.draws_exhausted);
      const auto frac = [](int silent, int injected) {
        return injected > 0
                   ? analysis::Table::num(
                         static_cast<double>(silent) / injected, 3)
                   : std::string("-");
      };
      t.add_row({fault::to_string(scheme),
                 scrub > 0 ? analysis::Table::num(scrub) : "off",
                 analysis::Table::num(static_cast<long>(r.injected)),
                 analysis::Table::num(static_cast<long>(r.masked)),
                 analysis::Table::num(static_cast<long>(r.corrected)),
                 analysis::Table::num(static_cast<long>(r.detected)),
                 analysis::Table::num(static_cast<long>(r.silent)),
                 frac(r.acc_silent, r.acc_injected),
                 frac(r.latch_silent, r.latch_injected),
                 frac(r.config_silent, r.config_injected)});
    }
  }
  return t;
}

analysis::Table ecc_cost_table() {
  units::UnitConfig cfg;
  cfg.stages = 8;
  const units::FpUnit unit(units::UnitKind::kAdder, fp::FpFormat::binary64(),
                           cfg);
  analysis::Table t(
      "Storage-protection cost — adder<binary64>/s8 baseline",
      {"scheme", "slices +", "LUTs +", "FFs +", "BRAMs +", "area x",
       "power x", "+cycles"});
  for (const fault::Scheme scheme :
       {fault::Scheme::kNone, fault::Scheme::kEcc, fault::Scheme::kDuplicate,
        fault::Scheme::kTmr}) {
    const fault::HardeningCost c = fault::hardening_cost(unit, scheme);
    t.add_row({fault::to_string(scheme),
               analysis::Table::num(static_cast<long>(c.overhead.slices)),
               analysis::Table::num(static_cast<long>(c.overhead.luts)),
               analysis::Table::num(static_cast<long>(c.overhead.ffs)),
               analysis::Table::num(static_cast<long>(c.overhead.brams)),
               analysis::Table::num(c.area_factor, 2),
               analysis::Table::num(c.power_factor, 2),
               analysis::Table::num(static_cast<long>(c.extra_latency_cycles))});
  }
  return t;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--scheme=<none|ecc>] [--threads=<n>]\n"
               "          [--backend=<b>] [--csv <dir>] [--json <path>]\n"
               "          [--metrics=<path>] [--trace=<path>]\n"
               "          [--checkpoint=<dir>] [--resume]\n"
               "          [--time-budget=<sec>] [--trial-budget=<n>]\n"
               "          [--stop-halfwidth=<frac>] [--fsync-interval=<n>]\n"
               "  --scheme=  restrict the kernel SDC table to one storage\n"
               "             scheme (default: none and ecc)\n"
               "  --threads= campaign worker threads (default: auto via\n"
               "             FLOPSIM_THREADS, then hardware concurrency)\n"
               "  --backend= label for the --json timing records (interpreted\n"
               "             or compiled); the matmul campaign always runs\n"
               "             its one interpreted kernel loop\n"
               "  --json     append per-campaign timing records (JSON lines,\n"
               "             conventionally BENCH_campaign.json)\n"
               "  --metrics= dump the metrics registry as JSON lines at exit\n"
               "  --trace=   write a Chrome/Perfetto trace-event JSON file\n"
               "  --checkpoint=/--resume/--time-budget=/--trial-budget=/\n"
               "  --stop-halfwidth= crash-safe campaign journaling, run\n"
               "             budgets, and convergence early-stop; an\n"
               "             interrupted-but-resumable run exits %d\n",
               argv0, obs::kExitInterrupted);
  return obs::kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flopsim;
  std::vector<fault::Scheme> schemes{fault::Scheme::kNone, fault::Scheme::kEcc};
  const obs::CliArgs cli = obs::parse_cli(argc, argv);
  if (!cli.ok() || !cli.vcd_path.empty()) return usage(argv[0]);
  for (const std::string& arg : cli.rest) {
    if (arg.rfind("--scheme=", 0) == 0) {
      const std::optional<fault::Scheme> s =
          fault::try_parse_scheme(arg.substr(9));
      if (!s.has_value()) return usage(argv[0]);
      schemes = {*s};
    } else {
      return usage(argv[0]);
    }
  }
  obs::init_observability(cli);
  bench::CampaignJournal journal(
      cli.threads, cli.backend == rtl::EvalBackend::kAuto
                       ? std::string{}
                       : std::string(rtl::to_string(cli.backend)));
  bench::RunPolicy policy(cli);
  try {
    bench::emit_to(essential_bits_table(cli.threads), cli.csv_dir);
    bench::emit_to(fit_vs_scrub_table(cli.threads), cli.csv_dir);
    bench::emit_to(reliable_selection_cram_table(cli.threads), cli.csv_dir);
    bench::emit_to(kernel_sdc_table(schemes, journal, policy), cli.csv_dir);
    bench::emit_to(ecc_cost_table(), cli.csv_dir);
  } catch (const exec::Interrupted& e) {
    std::fprintf(stderr, "interrupted (%s): sweep abandoned\n",
                 exec::to_string(e.reason));
    journal.write(cli.json_path);
    policy.summarize_exhausted_draws();
    obs::flush_observability(cli);
    return obs::kExitInterrupted;
  }
  journal.write(cli.json_path);
  policy.summarize_exhausted_draws();
  const int base = obs::flush_observability(cli) ? obs::kExitOk
                                                 : obs::kExitRuntime;
  return policy.exit_code(base);
}
