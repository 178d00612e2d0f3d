// Shared command-line plumbing for the tools and benches.
//
// Before this helper, `--threads=`/`--json` parsing was copy-pasted
// across ext_seu_vulnerability, ext_cram_scrub, and flopsim-gen with
// slightly different error paths. parse_cli owns the observability and
// campaign flags once:
//
//   --threads=<n>    campaign worker threads (absent -> 0 = auto,
//                    anything not in [1, 1024] -> error)
//   --backend=<b>    campaign trial evaluation backend: interpreted or
//                    compiled (absent -> auto: the FLOPSIM_BACKEND env
//                    var, else interpreted; any other value -> error)
//   --json <path>    append per-campaign timing records (JSON lines)
//   --csv <dir>      per-table CSV emission directory
//   --metrics=<path> dump the metrics registry as JSON lines at exit
//   --trace=<path>   enable span tracing; write Chrome trace JSON at exit
//   --vcd=<path>     waveform capture (flopsim-gen)
//
// and the resilience flags (checkpoint/resume/budgets — tools that have
// no campaign to protect reject them as usage errors):
//
//   --checkpoint=<dir>     journal finished chunks to <dir>/<spec>.ckpt
//   --resume               restore completed chunks from the checkpoint
//   --time-budget=<sec>    cancel (gracefully) after this much wall clock
//   --trial-budget=<n>     cancel after n trials executed this invocation
//   --stop-halfwidth=<x>   early-stop once the 95% half-width reaches x
//   --fsync-interval=<n>   fsync the checkpoint every n appends (0: close)
//
// Tokens the parser does not own land in `rest` in order, so each tool
// keeps its own positional/extra flags (op names, --scheme=, --harden=)
// and decides itself whether an unrecognized token is an error.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "rtl/evaluator.hpp"

namespace flopsim::obs {

// Process exit taxonomy, uniform across flopsim-gen, flopsim-lint, and
// the ext_* benches:
//   0  success
//   1  runtime failure (exceptions, I/O, infeasible request)
//   2  usage error (bad flag/operand; a usage: synopsis goes to stderr)
//   75 interrupted but resumable — a signal or budget stopped the run
//      after a checkpoint was flushed (EX_TEMPFAIL: retry later).
inline constexpr int kExitOk = 0;
inline constexpr int kExitRuntime = 1;
inline constexpr int kExitUsage = 2;
inline constexpr int kExitInterrupted = 75;

struct CliArgs {
  int threads = 0;  ///< 0 = auto; parse errors set `error` instead
  /// --backend= value, pre-validated by rtl::try_parse_backend; kAuto when
  /// the flag is absent (an unknown name sets `error` instead).
  rtl::EvalBackend backend = rtl::EvalBackend::kAuto;
  std::string csv_dir;
  std::string json_path;
  std::string metrics_path;
  std::string trace_path;
  std::string vcd_path;
  // Resilience (campaign tools).
  std::string checkpoint_dir;  ///< --checkpoint=; empty = off
  bool resume = false;
  double time_budget_s = 0.0;     ///< --time-budget=; 0 = off
  long trial_budget = 0;          ///< --trial-budget=; 0 = off
  double stop_half_width = 0.0;   ///< --stop-halfwidth=; 0 = off
  long fsync_interval = 8;        ///< --fsync-interval=
  std::vector<std::string> rest;  ///< unconsumed argv[1..] tokens
  std::string error;              ///< first offending token; empty = ok

  bool ok() const { return error.empty(); }
  /// Any resilience flag present (tools without campaigns reject these).
  bool wants_resilience() const {
    return !checkpoint_dir.empty() || resume || time_budget_s > 0.0 ||
           trial_budget > 0 || stop_half_width > 0.0;
  }
};

CliArgs parse_cli(int argc, char** argv);

/// `--threads=` value validation: absent semantics are the caller's; a
/// string not representing an integer in [1, 1024] returns -1.
int parse_threads_value(const std::string& v);

/// Strict decimal parse of a tool operand: every character a digit, value
/// within [min, max]. nullopt on empty strings, signs, trailing junk
/// ("3x"), or out-of-range values — the checked replacement for bare
/// std::atoi on positionals; callers turn nullopt into usage + exit 2.
std::optional<long> parse_int_arg(const std::string& v, long min, long max);

/// Arm tracing when --trace= was given. Call before the workload runs.
void init_observability(const CliArgs& cli);

/// Write --metrics/--trace outputs (global registry / tracer). Returns
/// false when any requested write failed (warning already on stderr).
bool flush_observability(const CliArgs& cli);

}  // namespace flopsim::obs
