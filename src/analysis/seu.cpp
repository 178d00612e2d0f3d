#include "analysis/seu.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>

#include "exec/parallel.hpp"
#include "fault/checkpoint.hpp"
#include "lint/probe.hpp"
#include "obs/probe.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"

namespace flopsim::analysis {

namespace {

bool same_output(const std::optional<units::UnitOutput>& a,
                 const std::optional<units::UnitOutput>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a.has_value()) return true;
  return a->result == b->result && a->flags == b->flags;
}

/// Per-trial verdict of one unit-campaign fault, filled by whichever
/// worker owns the trial and reduced in fault-list order afterwards.
struct UnitTrial {
  bool corrupted = false;         // copy 0's own output vs golden
  bool hardened_differs = false;  // post-voter output vs golden
  bool mismatch = false;          // checker fired at any cycle
};

// --- checkpoint plumbing shared by the campaign drivers ----------------

/// One trial verdict <-> one sidecar byte. Bits: 0 corrupted,
/// 1 hardened_differs, 2 mismatch. The byte IS the checkpoint format for
/// unit campaigns; changing it invalidates existing sidecars (bump the
/// spec-hash salt below if it ever has to change).
std::uint8_t encode_unit_trial(const UnitTrial& t) {
  return static_cast<std::uint8_t>((t.corrupted ? 1 : 0) |
                                   (t.hardened_differs ? 2 : 0) |
                                   (t.mismatch ? 4 : 0));
}

UnitTrial decode_unit_trial(std::uint8_t b) {
  UnitTrial t;
  t.corrupted = (b & 1) != 0;
  t.hardened_differs = (b & 2) != 0;
  t.mismatch = (b & 4) != 0;
  return t;
}

/// Whether a unit trial reduces to "silent" under the campaign's scheme —
/// factored out so the running convergence tally cannot drift from the
/// final ordered reduction.
bool unit_trial_silent(const UnitTrial& t, fault::Scheme scheme) {
  if (scheme == fault::Scheme::kTmr) return t.hardened_differs;
  return t.corrupted && !t.mismatch;
}

// --- evaluator fast path ------------------------------------------------

/// Whether the compiled evaluator's guarantees cover this campaign: every
/// fault a one-shot data-lane latch flip, and no chain piece that writes
/// DONE or behaves nondeterministically — the behaviours that make the
/// scheme mapping below unsound. Both chain facts come from the lint
/// probe's def-use inference over the campaign workload. Anything else
/// runs interpreted.
bool fast_path_covers(const std::vector<fault::Fault>& faults,
                      const rtl::PieceChain& chain,
                      const std::vector<rtl::SignalSet>& stimuli) {
  for (const fault::Fault& f : faults) {
    if (f.site != fault::FaultSite::kStageLatch || f.lane < 0 ||
        f.lane >= rtl::kMaxSignals || f.bit < 0 || f.bit >= 64) {
      return false;
    }
  }
  lint::ChainContract contract;
  contract.name = "fast_path_covers";
  contract.input_lanes = {units::detail::kLaneInA, units::detail::kLaneInB,
                          units::detail::kLaneInCtl, units::detail::kLaneInC};
  contract.result_lane = units::detail::kLaneResult;
  contract.stimuli = stimuli;
  const lint::ChainAccess access =
      lint::infer_chain_access(chain, contract, lint::Options{});
  return std::none_of(access.piece.begin(), access.piece.end(),
                      [](const lint::PieceAccess& pa) {
                        return pa.writes_valid || pa.nondeterministic;
                      });
}

/// Map an evaluator verdict onto the scheme-aware trial the legacy
/// HardenedUnit loop produces — the exact per-scheme truth table, byte
/// for byte (these bytes ARE the checkpoint format):
///  * kNone / kEcc  — no checker; the hardened output is copy 0's.
///  * kParity       — the per-stage parity checker fires on every applied
///                    flip (single-bit upsets always have odd weight),
///                    struck or bubble alike.
///  * kResidue      — the mod-3 checker fires only when the corruption
///                    reaches the result significand of a valid output.
///  * kDuplicate    — compare-against-clean-copy: fires iff observables
///                    differ.
///  * kTmr          — the voter outvotes the single struck copy, so the
///                    hardened output never differs; disagreement shows up
///                    as a mismatch.
UnitTrial map_fast_trial(const rtl::UpsetTrial& t, fault::Scheme scheme,
                         fp::u64 clean_result, fp::u64 frac_mask) {
  UnitTrial u;
  u.corrupted = t.corrupted;
  switch (scheme) {
    case fault::Scheme::kNone:
    case fault::Scheme::kEcc:
      u.hardened_differs = t.corrupted;
      break;
    case fault::Scheme::kParity:
      u.hardened_differs = t.corrupted;
      u.mismatch = true;
      break;
    case fault::Scheme::kResidue:
      u.hardened_differs = t.corrupted;
      u.mismatch = t.struck && t.valid &&
                   ((t.result ^ clean_result) & frac_mask) != 0;
      break;
    case fault::Scheme::kDuplicate:
      u.hardened_differs = t.corrupted;
      u.mismatch = t.corrupted;
      break;
    case fault::Scheme::kTmr:
      u.mismatch = t.corrupted;
      break;
  }
  return u;
}

void fold_fault(fault::SpecHash& h, const fault::Fault& f) {
  h.i64(f.cycle)
      .i64(static_cast<long long>(f.site))
      .i64(f.index)
      .i64(f.lane)
      .i64(f.bit)
      .u64(f.mask)
      .u64(f.stuck)
      .i64(f.repair_cycle);
}

/// A campaign's live checkpoint: the skip set restored from the sidecar
/// plus the writer the remaining chunks append to. Inactive (no writer, no
/// skips) when the control has no checkpoint directory.
struct CheckpointSession {
  std::vector<char> skip;  ///< per-chunk; empty when nothing restored
  std::unique_ptr<fault::CheckpointWriter> writer;
  long restored = 0;
};

/// Open (and on resume, restore) the sidecar for spec `key`.
/// `restore_chunk(index, bytes)` decodes one stored chunk back into the
/// caller's slots and returns false to reject it (bad size). The sidecar
/// is rewritten via a temp file so a pre-existing torn tail can never
/// swallow this run's appends.
CheckpointSession open_checkpoint_session(
    const CampaignRunControl& ctl, std::uint64_t key, std::size_t count,
    std::size_t chunk, std::size_t nchunks,
    const std::function<bool(std::size_t, const std::vector<std::uint8_t>&)>&
        restore_chunk) {
  CheckpointSession s;
  if (ctl.checkpoint_dir.empty() || count == 0) return s;
  const std::string path = fault::checkpoint_path(ctl.checkpoint_dir, key);
  std::map<std::size_t, std::vector<std::uint8_t>> keep;
  if (ctl.resume) {
    const fault::CheckpointLoad load = fault::load_checkpoint(path);
    if (load.found) {
      if (load.spec_hash != key || load.count != count ||
          load.chunk != chunk) {
        throw std::runtime_error(
            "checkpoint " + path +
            " was written by a different campaign (spec/count/chunk "
            "mismatch); refusing to mix tallies");
      }
      s.skip.assign(nchunks, 0);
      for (const auto& [index, data] : load.chunks) {
        if (!restore_chunk(index, data)) continue;
        s.skip[index] = 1;
        ++s.restored;
        keep.emplace(index, data);
      }
    }
  }
  s.writer = fault::rewrite_checkpoint(path, key, count, chunk,
                                       ctl.fsync_interval, keep);
  return s;
}

/// What a campaign hands the trial driver: its static grid and identity,
/// the sidecar codec of one item's verdict, and how to measure its
/// headline rate. The golden run, the draw, the trial body and the
/// ordered reduction stay with the campaign.
struct TrialPlan {
  std::uint64_t key = 0;  ///< campaign spec hash (names the sidecar)
  std::size_t count = 0;  ///< grid items: trials, or depths for the sweep
  std::size_t chunk = 1;  ///< items per grid chunk
  int threads = 0;
  long trials_per_item = 1;  ///< trial-budget charge of one finished item
  /// Sidecar bytes per item; a stored chunk of any other size is dropped
  /// and re-run.
  std::size_t item_bytes = 1;
  std::function<void(std::size_t item, std::vector<std::uint8_t>& out)>
      encode;
  std::function<void(std::size_t item, const std::uint8_t* bytes)> restore;
  /// Convergence: whether an accounted item is silent, and the half-width
  /// of the headline rate after `silent` of `n` items. Unset: the
  /// campaign has no early stop and ignores stop_half_width.
  std::function<bool(std::size_t item)> silent;
  std::function<double(long silent, long n)> half_width;
  /// Ticked for restored items; the trial body ticks the ones it runs.
  obs::ProgressReporter* progress = nullptr;
};

struct TrialRun {
  exec::GridResult grid;
  CampaignRunStatus status;
};

/// The one resilient trial loop every campaign runs on: restore the
/// sidecar, run `body` over the grid's remaining chunks, and after each
/// chunk tally it, journal its verdict bytes, charge the trial budget and
/// test the convergence stop. Cancellation is polled between chunks; the
/// caller reduces only the chunks marked done in the returned grid.
TrialRun run_trials(const TrialPlan& plan, const CampaignRunControl& control,
                    const exec::ThreadPool::ChunkFn& body) {
  const std::size_t nchunks =
      exec::grid_chunk_count(plan.count, 1, plan.chunk);
  const bool converge = control.stop_half_width > 0.0 &&
                        static_cast<bool>(plan.half_width);

  // Convergence tallies run over every accounted item — restored chunks
  // included, so a resumed campaign's early stop sees the full sample.
  long done_items = 0;
  long done_silent = 0;
  const auto account = [&](std::size_t begin, std::size_t end) {
    done_items += static_cast<long>(end - begin);
    if (!converge) return;
    for (std::size_t i = begin; i < end; ++i) {
      if (plan.silent(i)) ++done_silent;
    }
  };
  CheckpointSession ckpt = open_checkpoint_session(
      control, plan.key, plan.count, plan.chunk, nchunks,
      [&](std::size_t index, const std::vector<std::uint8_t>& data) {
        const std::size_t begin = index * plan.chunk;
        const std::size_t end = std::min(plan.count, begin + plan.chunk);
        if (data.size() != (end - begin) * plan.item_bytes) return false;
        for (std::size_t i = begin; i < end; ++i) {
          plan.restore(i, &data[(i - begin) * plan.item_bytes]);
        }
        account(begin, end);
        return true;
      });
  if (plan.progress != nullptr && done_items > 0) {
    plan.progress->tick(done_items);
  }

  exec::CancelToken local_token;
  exec::CancelToken* cancel =
      control.cancel != nullptr ? control.cancel : &local_token;

  long executed = 0;
  exec::GridOptions grid_opts;
  grid_opts.chunk = plan.chunk;
  grid_opts.skip = ckpt.skip.empty() ? nullptr : &ckpt.skip;
  grid_opts.cancel = cancel;
  grid_opts.on_chunk_done = [&](std::size_t c, std::size_t begin,
                                std::size_t end) {
    executed += static_cast<long>(end - begin) * plan.trials_per_item;
    account(begin, end);
    if (ckpt.writer != nullptr) {
      std::vector<std::uint8_t> data;
      data.reserve((end - begin) * plan.item_bytes);
      for (std::size_t i = begin; i < end; ++i) plan.encode(i, data);
      ckpt.writer->append(c, data);
    }
    if (control.trial_budget > 0 && executed >= control.trial_budget) {
      cancel->request(exec::CancelToken::Reason::kTrialBudget);
    }
    if (converge && plan.half_width(done_silent, done_items) <=
                        control.stop_half_width) {
      cancel->request(exec::CancelToken::Reason::kConverged);
    }
  };

  TrialRun run;
  run.grid = exec::parallel_for_grid(plan.count, plan.threads, body,
                                     grid_opts);
  if (ckpt.writer != nullptr) ckpt.writer->flush();

  run.status.chunks_total = static_cast<long>(run.grid.chunks);
  run.status.chunks_completed = static_cast<long>(run.grid.completed);
  run.status.chunks_restored = ckpt.restored;
  run.status.trials_executed = executed;
  run.status.interrupted = !run.grid.complete();
  run.status.stop_reason = cancel->reason();
  obs::Registry& reg = obs::Registry::global();
  reg.counter("campaign.chunks.completed")
      .add(static_cast<long>(run.grid.completed));
  reg.counter("campaign.chunks.restored").add(ckpt.restored);
  if (run.status.interrupted) reg.counter("campaign.interrupted").inc();
  return run;
}

}  // namespace

double proportion_half_width(long successes, long n) {
  if (n <= 0) return 0.0;
  // Agresti-Coull adjustment: the plain normal approximation collapses to
  // a zero half-width at p == 0 or 1, which would trip any convergence
  // threshold after one all-masked chunk. p~ = (s+2)/(n+4) never does.
  const double nt = static_cast<double>(n) + 4.0;
  const double p = (static_cast<double>(successes) + 2.0) / nt;
  return 1.96 * std::sqrt(p * (1.0 - p) / nt);
}

UnitSeuResult run_unit_campaign(units::UnitKind kind, fp::FpFormat fmt,
                                const units::UnitConfig& cfg,
                                const SeuCampaignConfig& camp,
                                const CampaignRunControl& control) {
  UnitSeuResult res;
  obs::Tracer& tracer = obs::Tracer::global();
  obs::Registry& reg = obs::Registry::global();
  auto campaign_span = tracer.span("unit_campaign", "campaign");

  units::FpUnit probe(kind, fmt, cfg);
  const int horizon = camp.vectors + probe.latency() + 2;
  const std::vector<units::UnitInput> workload =
      fault::campaign_workload(kind, fmt, camp.vectors, camp.seed);

  // Golden run: the clean pipeline over the identical stream.
  std::vector<std::optional<units::UnitOutput>> golden;
  golden.reserve(static_cast<std::size_t>(horizon));
  {
    auto golden_span = tracer.span("golden", "campaign");
    probe.reset();
    for (int t = 0; t < horizon; ++t) {
      probe.step(t < camp.vectors
                     ? std::optional<units::UnitInput>(
                           workload[static_cast<std::size_t>(t)])
                     : std::nullopt);
      golden.push_back(probe.output());
    }
  }
  // Occupancy of the clean pipeline over the campaign workload, recorded
  // on the caller's thread (thread-count-invariant by construction).
  obs::record_unit_occupancy(
      reg,
      std::string("pipeline.") + units::to_string(kind) + "." + fmt.name(),
      probe);

  auto draw_span = tracer.span("draw", "campaign");
  const fault::LatchProfile profile =
      fault::profile_unit_latches(probe, camp.vectors, camp.seed);
  res.occupied_bits = profile.total_bits();
  res.pipeline_ffs = probe.area().pipeline_ffs;

  // The whole fault list is drawn before any trial runs: the determinism
  // anchor. Every trial is a pure function of (fault, golden, workload).
  fault::CampaignSpec draw_spec;
  draw_spec.source = fault::CampaignSpec::Source::kRandom;
  draw_spec.profile = &profile;
  draw_spec.horizon = horizon;
  draw_spec.count = camp.faults;
  draw_spec.seed = camp.seed + 1;
  const fault::FaultCampaign campaign = fault::FaultCampaign::make(draw_spec);
  const std::vector<fault::Fault>& faults = campaign.faults();
  std::vector<UnitTrial> trials(faults.size());
  draw_span.end();

  // A profile with no occupied sites yields a short (or empty) fault list:
  // the campaign silently runs fewer trials than requested. Account for
  // the shortfall the same way the matmul campaign accounts its dropped
  // redraws, so /metrics and BENCH records can surface it.
  if (static_cast<int>(faults.size()) < camp.faults) {
    const long dropped =
        static_cast<long>(camp.faults) - static_cast<long>(faults.size());
    reg.counter("campaign.unit.dropped_trials").add(dropped);
    std::fprintf(stderr,
                 "warning: unit campaign: dropped %ld of %d trials (no "
                 "occupied fault sites to draw)\n",
                 dropped, camp.faults);
  }

  // Backend selection: bind once per campaign, fork per worker. The
  // evaluator is only trusted where its guarantees hold (fast_path_covers);
  // everything else — and every kInterpreted request — runs the legacy
  // HardenedUnit loop. Tallies and checkpoint bytes are backend-invariant,
  // which is why the backend never folds into the spec hash below.
  const rtl::EvalBackend backend = rtl::resolve_backend(camp.backend);
  std::unique_ptr<rtl::Evaluator> evaluator;
  if (backend != rtl::EvalBackend::kInterpreted && !faults.empty()) {
    std::vector<rtl::SignalSet> stimuli;
    stimuli.reserve(workload.size());
    for (const units::UnitInput& in : workload) {
      stimuli.push_back(units::FpUnit::pack(in));
    }
    if (fast_path_covers(faults, probe.pieces(), stimuli)) {
      evaluator = rtl::make_evaluator(backend, probe.pieces(), probe.plan(),
                                      units::detail::kLaneResult);
      evaluator->bind(stimuli, horizon);
    } else {
      reg.counter("campaign.unit.backend_fallback").inc();
    }
  }

  // Static checkpoint grid: boundaries depend only on (count, chunk), so
  // a resume at a different thread count re-runs the same chunks.
  const std::size_t count = faults.size();
  const std::size_t chunk =
      control.chunk_trials > 0 ? control.chunk_trials : 16;

  // Campaign identity: everything the trial outcomes are a function of,
  // including the drawn fault list itself (the strongest possible key).
  fault::SpecHash spec;
  spec.str("unit_campaign v1");
  spec.str(units::to_string(kind)).str(fmt.name());
  spec.i64(probe.stages());
  spec.i64(static_cast<long long>(camp.scheme));
  spec.i64(camp.vectors).i64(camp.faults).u64(camp.seed).i64(horizon);
  spec.i64(static_cast<long long>(cfg.rounding))
      .i64(static_cast<long long>(cfg.objective))
      .i64(cfg.ieee_mode ? 1 : 0)
      .i64(cfg.use_embedded_multipliers ? 1 : 0);
  spec.i64(static_cast<long long>(chunk));
  spec.i64(static_cast<long long>(count));
  for (const fault::Fault& f : faults) fold_fault(spec, f);

  obs::ProgressReporter progress("unit campaign", static_cast<long>(count));
  TrialPlan plan;
  plan.key = spec.value();
  plan.count = count;
  plan.chunk = chunk;
  plan.threads = camp.threads;
  plan.encode = [&](std::size_t i, std::vector<std::uint8_t>& out) {
    out.push_back(encode_unit_trial(trials[i]));
  };
  plan.restore = [&](std::size_t i, const std::uint8_t* bytes) {
    trials[i] = decode_unit_trial(*bytes);
  };
  plan.silent = [&](std::size_t i) {
    return unit_trial_silent(trials[i], camp.scheme);
  };
  plan.half_width = [&](long silent, long n) {
    return control.rate.fit(res.pipeline_ffs,
                            proportion_half_width(silent, n));
  };
  plan.progress = &progress;

  auto inject_span = tracer.span("inject", "campaign");
  const fault::HardenedUnit proto(kind, fmt, cfg, camp.scheme);
  const int eval_stages = evaluator != nullptr ? evaluator->stages() : 0;
  const fp::u64 frac_mask = fmt.frac_mask();
  const TrialRun run = run_trials(
      plan, control, [&](int /*worker*/, std::size_t begin, std::size_t end) {
        if (evaluator != nullptr) {
          // Compiled fast path: one forked evaluator per chunk.
          const std::unique_ptr<rtl::Evaluator> ev = evaluator->fork();
          for (std::size_t i = begin; i < end; ++i) {
            const fault::Fault& f = faults[i];
            const rtl::UpsetTrial v =
                ev->trial(rtl::LatchUpset{f.cycle, f.index, f.lane, f.bit});
            const fp::u64 clean_result =
                v.struck ? ev->clean_state(static_cast<int>(f.cycle - f.index),
                                           eval_stages - 1)
                               .lane[units::detail::kLaneResult]
                         : 0;
            trials[i] =
                map_fast_trial(v, camp.scheme, clean_result, frac_mask);
            progress.tick();
          }
          return;
        }
        fault::HardenedUnit hardened = proto.clone();
        for (std::size_t i = begin; i < end; ++i) {
          hardened.reset();
          hardened.arm(fault::FaultCampaign::from_list({faults[i]}));
          UnitTrial& trial = trials[i];
          for (int t = 0; t < horizon; ++t) {
            const fault::HardenedUnit::Output out = hardened.step(
                t < camp.vectors ? std::optional<units::UnitInput>(
                                       workload[static_cast<std::size_t>(t)])
                                 : std::nullopt);
            const std::optional<units::UnitOutput>& g =
                golden[static_cast<std::size_t>(t)];
            trial.corrupted |= !same_output(out.raw, g);
            trial.hardened_differs |= !same_output(out.out, g);
            trial.mismatch |= out.mismatch;
          }
          hardened.disarm();
          progress.tick();
        }
      });
  inject_span.end();
  res.run = run.status;

  // Ordered reduction: fault-list order, never worker-arrival order. Only
  // accounted (run or restored) chunks contribute — with every chunk done
  // this is exactly the legacy flat fold over the fault list.
  auto reduce_span = tracer.span("reduce", "campaign");
  for (std::size_t i = 0; i < count; ++i) {
    if (run.grid.done[i / chunk] == 0) continue;
    const UnitTrial& trial = trials[i];
    ++res.injected;
    if (trial.corrupted) ++res.corrupted;
    if (camp.scheme == fault::Scheme::kTmr) {
      if (trial.hardened_differs) {
        ++res.silent;
      } else if (trial.corrupted) {
        ++res.corrected;
      } else {
        ++res.masked;
      }
    } else {
      if (trial.corrupted && !trial.mismatch) {
        ++res.silent;
      } else if (trial.mismatch) {
        ++res.detected;
      } else {
        ++res.masked;
      }
    }
  }
  reduce_span.end();

  reg.counter("campaign.unit.trials").add(res.injected);
  reg.counter("campaign.unit.corrupted").add(res.corrupted);
  reg.counter("campaign.unit.masked").add(res.masked);
  reg.counter("campaign.unit.detected").add(res.detected);
  reg.counter("campaign.unit.corrected").add(res.corrected);
  reg.counter("campaign.unit.silent").add(res.silent);
  return res;
}

namespace {

// A finished depth point is the sweep's checkpoint unit: 8 little-endian
// 64-bit words (ints widened, doubles bit-cast), so restore is exact.
constexpr std::size_t kDepthPointBytes = 64;

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xffu));
  }
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

void encode_depth_point(const SeuDepthPoint& p,
                        std::vector<std::uint8_t>& out) {
  put_u64(out, static_cast<std::uint64_t>(static_cast<std::int64_t>(p.stages)));
  put_u64(out, std::bit_cast<std::uint64_t>(p.freq_mhz));
  put_u64(out, static_cast<std::uint64_t>(
                   static_cast<std::int64_t>(p.pipeline_ffs)));
  put_u64(out, static_cast<std::uint64_t>(
                   static_cast<std::int64_t>(p.occupied_bits)));
  put_u64(out, std::bit_cast<std::uint64_t>(p.avf));
  put_u64(out, std::bit_cast<std::uint64_t>(p.sdc_fraction));
  put_u64(out, std::bit_cast<std::uint64_t>(p.sdc_fit));
  put_u64(out, std::bit_cast<std::uint64_t>(p.tmr_area_x));
}

SeuDepthPoint decode_depth_point(const std::uint8_t* data) {
  SeuDepthPoint p;
  p.stages = static_cast<int>(static_cast<std::int64_t>(get_u64(&data[0])));
  p.freq_mhz = std::bit_cast<double>(get_u64(&data[8]));
  p.pipeline_ffs =
      static_cast<int>(static_cast<std::int64_t>(get_u64(&data[16])));
  p.occupied_bits =
      static_cast<long>(static_cast<std::int64_t>(get_u64(&data[24])));
  p.avf = std::bit_cast<double>(get_u64(&data[32]));
  p.sdc_fraction = std::bit_cast<double>(get_u64(&data[40]));
  p.sdc_fit = std::bit_cast<double>(get_u64(&data[48]));
  p.tmr_area_x = std::bit_cast<double>(get_u64(&data[56]));
  return p;
}

}  // namespace

SeuSweepRun seu_depth_sweep(units::UnitKind kind, fp::FpFormat fmt,
                            const std::vector<int>& depths,
                            const SeuCampaignConfig& camp,
                            const SeuRateModel& rate,
                            const CampaignRunControl& control) {
  auto sweep_span =
      obs::Tracer::global().span("seu_depth_sweep", "campaign");
  SeuSweepRun out;
  out.points.assign(depths.size(), SeuDepthPoint{});
  const std::size_t count = depths.size();

  fault::SpecHash spec;
  spec.str("seu_depth_sweep v1");
  spec.str(units::to_string(kind)).str(fmt.name());
  spec.i64(camp.vectors).i64(camp.faults).u64(camp.seed);
  spec.f64(rate.fit_per_mbit);
  spec.i64(static_cast<long long>(count));
  for (const int d : depths) spec.i64(d);

  TrialPlan plan;
  plan.key = spec.value();
  plan.count = count;
  plan.chunk = 1;  // one depth = one recoverable unit
  plan.threads = camp.threads;
  plan.trials_per_item = camp.faults;  // the depth's inner campaign
  plan.item_bytes = kDepthPointBytes;
  plan.encode = [&](std::size_t i, std::vector<std::uint8_t>& bytes) {
    encode_depth_point(out.points[i], bytes);
  };
  plan.restore = [&](std::size_t i, const std::uint8_t* bytes) {
    out.points[i] = decode_depth_point(bytes);
  };
  const TrialRun run = run_trials(
      plan, control, [&](int /*worker*/, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          units::UnitConfig cfg;
          cfg.stages = depths[i];
          SeuCampaignConfig c = camp;
          c.scheme = fault::Scheme::kNone;
          c.threads = 1;  // the depth grid is the parallel axis here
          const UnitSeuResult r = run_unit_campaign(kind, fmt, cfg, c);
          const units::FpUnit unit(kind, fmt, cfg);
          SeuDepthPoint p;
          p.stages = unit.stages();
          p.freq_mhz = unit.timing().freq_mhz;
          p.pipeline_ffs = r.pipeline_ffs;
          p.occupied_bits = r.occupied_bits;
          p.avf = r.avf();
          p.sdc_fraction = r.sdc_fraction();
          p.sdc_fit = rate.fit(r.pipeline_ffs, r.avf());
          p.tmr_area_x =
              fault::hardening_cost(unit, fault::Scheme::kTmr).area_factor;
          out.points[i] = p;
        }
      });
  out.done = run.grid.done;
  out.run = run.status;
  return out;
}

ReliableSelection select_min_max_opt_reliable(const SweepResult& sweep,
                                              double max_fit,
                                              const SeuRateModel& rate,
                                              double avf_derate) {
  ReliableSelection sel;
  sel.unconstrained = select_min_max_opt(sweep);
  const DesignPoint* best = nullptr;
  const DesignPoint* least_vulnerable = nullptr;
  double least_fit = 0.0;
  for (const DesignPoint& p : sweep.points) {
    const double fit = rate.fit(p.pipeline_ffs, avf_derate);
    // Infeasible fallback: minimum modelled FIT — the quantity the cap is
    // expressed in (mirrors the CRAM overload below).
    if (least_vulnerable == nullptr || fit < least_fit) {
      least_vulnerable = &p;
      least_fit = fit;
    }
    if (fit <= max_fit &&
        (best == nullptr || p.freq_per_area > best->freq_per_area)) {
      best = &p;
    }
  }
  if (best != nullptr) {
    sel.opt = *best;
    sel.feasible = true;
  } else if (least_vulnerable != nullptr) {
    sel.opt = *least_vulnerable;
  }
  sel.fit_at_opt = rate.fit(sel.opt.pipeline_ffs, avf_derate);
  return sel;
}

ReliableSelection select_min_max_opt_reliable(const SweepResult& sweep,
                                              double max_fit,
                                              const SeuRateModel& rate,
                                              double avf_derate,
                                              const CramRateModel& cram) {
  ReliableSelection sel;
  sel.unconstrained = select_min_max_opt(sweep);
  const auto total_fit = [&](const DesignPoint& p) {
    return rate.fit(p.pipeline_ffs, avf_derate) + cram.fit(p.area);
  };
  const DesignPoint* best = nullptr;
  const DesignPoint* least_vulnerable = nullptr;
  double least_fit = 0.0;
  for (const DesignPoint& p : sweep.points) {
    const double fit = total_fit(p);
    if (least_vulnerable == nullptr || fit < least_fit) {
      least_vulnerable = &p;
      least_fit = fit;
    }
    if (fit <= max_fit &&
        (best == nullptr || p.freq_per_area > best->freq_per_area)) {
      best = &p;
    }
  }
  if (best != nullptr) {
    sel.opt = *best;
    sel.feasible = true;
  } else if (least_vulnerable != nullptr) {
    sel.opt = *least_vulnerable;
  }
  sel.cram_fit_at_opt = cram.fit(sel.opt.area);
  sel.fit_at_opt =
      rate.fit(sel.opt.pipeline_ffs, avf_derate) + sel.cram_fit_at_opt;
  return sel;
}

namespace {

// One kernel-campaign fault: which PE, which structure inside it.
struct PeFault {
  int pe = 0;
  enum Target {
    kMultLatch,
    kAddLatch,
    kAccumulator,
    kConfigMult,  ///< persistent config upset in the multiplier's logic
    kConfigAdd,   ///< persistent config upset in the adder's logic
  } target = kAccumulator;
  fault::Fault fault;
};

/// Per-trial verdict of one kernel-campaign fault.
struct KernelTrial {
  bool corrupted = false;
  bool ecc_detected = false;   // pe.ecc_detections() > 0 after the run
  bool ecc_corrected = false;  // pe.ecc_corrections() > 0 after the run
};

// A single-fault draw can come back empty (the sampled profile exposes no
// occupied site for that source); the legacy loop silently dropped the
// trial, so the campaign ran fewer than camp.faults faults and the
// accumulator/config fractions drifted from spec. Redraw with the next
// rng() seed until non-empty — bounded, and consuming extra draws only on
// the empty path, so a campaign whose draws all land keeps the legacy
// sequence bit for bit.
constexpr int kMaxRedraws = 16;

template <typename DrawFn>
fault::FaultCampaign redraw_until_nonempty(std::mt19937_64& rng,
                                           const DrawFn& draw) {
  fault::FaultCampaign c = draw(rng());
  for (int retry = 0; c.empty() && retry < kMaxRedraws; ++retry) {
    c = draw(rng());
  }
  return c;
}

/// Kernel-trial sidecar byte: bit 0 corrupted, 1 ecc_detected,
/// 2 ecc_corrected.
std::uint8_t encode_kernel_trial(const KernelTrial& t) {
  return static_cast<std::uint8_t>((t.corrupted ? 1 : 0) |
                                   (t.ecc_detected ? 2 : 0) |
                                   (t.ecc_corrected ? 4 : 0));
}

KernelTrial decode_kernel_trial(std::uint8_t b) {
  KernelTrial t;
  t.corrupted = (b & 1) != 0;
  t.ecc_detected = (b & 2) != 0;
  t.ecc_corrected = (b & 4) != 0;
  return t;
}

}  // namespace

MatmulSeuResult run_matmul_campaign(const kernel::PeConfig& cfg,
                                    const MatmulSeuConfig& camp,
                                    const CampaignRunControl& control) {
  MatmulSeuResult res;
  obs::Tracer& tracer = obs::Tracer::global();
  obs::Registry& reg = obs::Registry::global();
  auto campaign_span = tracer.span("matmul_campaign", "campaign");
  const int n = camp.n;
  std::mt19937_64 rng(camp.seed);

  kernel::PeConfig pe_cfg = cfg;
  pe_cfg.ecc_accumulators = camp.scheme == fault::Scheme::kEcc;

  // Deterministic operands with magnitudes near 1 so products stay finite.
  std::vector<double> av, bv;
  av.reserve(static_cast<std::size_t>(n) * n);
  bv.reserve(static_cast<std::size_t>(n) * n);
  for (int i = 0; i < n * n; ++i) {
    av.push_back((static_cast<double>(rng() % 2001) - 1000.0) / 499.0);
    bv.push_back((static_cast<double>(rng() % 2001) - 1000.0) / 499.0);
  }
  const kernel::Matrix a = kernel::matrix_from_doubles(av, n, cfg.fmt);
  const kernel::Matrix b = kernel::matrix_from_doubles(bv, n, cfg.fmt);

  // One shared golden run; every trial compares against it.
  auto golden_span = tracer.span("golden", "campaign");
  kernel::LinearArrayMatmul array(n, pe_cfg);
  const kernel::MatmulRun clean = array.run(a, b);
  const long horizon = clean.cycles;
  golden_span.end();
  // Per-PE MAC utilization + unit occupancy of the clean kernel run,
  // recorded before any trial perturbs the golden array's counters.
  obs::record_matmul_utilization(reg, "kernel.matmul", array);

  auto draw_span = tracer.span("draw", "campaign");

  // Latch-fault sample spaces for the PE's two units.
  const units::FpUnit mult_probe(units::UnitKind::kMultiplier, cfg.fmt,
                                 cfg.mult_config());
  const units::FpUnit add_probe(units::UnitKind::kAdder, cfg.fmt,
                                cfg.adder_config());
  const fault::LatchProfile mult_profile =
      fault::profile_unit_latches(mult_probe, 24, camp.seed + 2);
  const fault::LatchProfile add_profile =
      fault::profile_unit_latches(add_probe, 24, camp.seed + 3);

  // Pre-draw the complete fault list before any trial runs (the
  // determinism anchor for the parallel trial loop below).
  std::vector<PeFault> faults;
  faults.reserve(static_cast<std::size_t>(camp.faults));
  const int acc_count = static_cast<int>(
      camp.accumulator_fraction * static_cast<double>(camp.faults) + 0.5);
  for (int i = 0; i < camp.faults; ++i) {
    PeFault pf;
    pf.pe = static_cast<int>(rng() % static_cast<std::uint64_t>(n));
    if (i < acc_count) {
      pf.target = PeFault::kAccumulator;
      fault::CampaignSpec acc_spec;
      acc_spec.source = fault::CampaignSpec::Source::kAccumulator;
      acc_spec.rows = n;
      acc_spec.word_bits = cfg.fmt.total_bits();
      acc_spec.horizon = horizon;
      acc_spec.count = 1;
      acc_spec.seed = rng();
      const fault::FaultCampaign acc = fault::FaultCampaign::make(acc_spec);
      pf.fault = acc.faults().front();
    } else {
      const bool mult = (rng() & 1) != 0;
      pf.target = mult ? PeFault::kMultLatch : PeFault::kAddLatch;
      const fault::FaultCampaign latch =
          redraw_until_nonempty(rng, [&](std::uint64_t seed) {
            fault::CampaignSpec latch_spec;
            latch_spec.source = fault::CampaignSpec::Source::kRandom;
            latch_spec.profile = mult ? &mult_profile : &add_profile;
            latch_spec.horizon = horizon;
            latch_spec.count = 1;
            latch_spec.seed = seed;
            return fault::FaultCampaign::make(latch_spec);
          });
      if (latch.empty()) {
        // Dropping the trial shrinks the campaign below camp.faults and
        // skews the site mix — make the silent path loud.
        ++res.draws_exhausted;
        reg.counter("campaign.matmul.dropped_trials").inc();
        std::fprintf(stderr,
                     "warning: matmul campaign: %s latch fault draw still "
                     "empty after %d redraws; dropping trial %d of %d\n",
                     mult ? "multiplier" : "adder", kMaxRedraws, i,
                     camp.faults);
        continue;
      }
      pf.fault = latch.faults().front();
    }
    faults.push_back(pf);
  }

  // Configuration upsets ride on top of the legacy draw sequence (appended
  // after it, so config_fraction == 0 reproduces the old campaign bit for
  // bit): a struck LUT/route in one unit's stage logic forces a stuck mask
  // until the next scrub pass.
  const int config_count = static_cast<int>(
      camp.config_fraction * static_cast<double>(camp.faults) + 0.5);
  for (int i = 0; i < config_count; ++i) {
    PeFault pf;
    pf.pe = static_cast<int>(rng() % static_cast<std::uint64_t>(n));
    const bool mult = (rng() & 1) != 0;
    pf.target = mult ? PeFault::kConfigMult : PeFault::kConfigAdd;
    const fault::FaultCampaign config =
        redraw_until_nonempty(rng, [&](std::uint64_t seed) {
          fault::CampaignSpec config_spec;
          config_spec.source = fault::CampaignSpec::Source::kCram;
          config_spec.profile = mult ? &mult_profile : &add_profile;
          config_spec.horizon = horizon;
          config_spec.count = 1;
          config_spec.seed = seed;
          config_spec.scrub_period_cycles = camp.scrub_period_cycles;
          return fault::FaultCampaign::make(config_spec);
        });
    if (config.empty()) {
      ++res.draws_exhausted;
      reg.counter("campaign.matmul.dropped_trials").inc();
      std::fprintf(stderr,
                   "warning: matmul campaign: %s config fault draw still "
                   "empty after %d redraws; dropping trial %d of %d\n",
                   mult ? "multiplier" : "adder", kMaxRedraws, i,
                   config_count);
      continue;
    }
    pf.fault = config.faults().front();
    faults.push_back(pf);
  }
  draw_span.end();

  // Static checkpoint grid over the pre-drawn fault list (see the unit
  // campaign above for the scheme; the key folds the drawn faults so two
  // campaigns with different draws can never share a sidecar).
  const std::size_t count = faults.size();
  const std::size_t chunk =
      control.chunk_trials > 0 ? control.chunk_trials : 16;
  std::vector<KernelTrial> trials(count);

  fault::SpecHash spec;
  spec.str("matmul_campaign v1");
  spec.i64(camp.n).str(cfg.fmt.name());
  spec.i64(camp.faults).u64(camp.seed);
  spec.f64(camp.accumulator_fraction).f64(camp.config_fraction);
  spec.i64(static_cast<long long>(camp.scheme));
  spec.i64(camp.scrub_period_cycles).i64(horizon);
  spec.i64(cfg.mult_config().stages).i64(cfg.adder_config().stages);
  spec.i64(static_cast<long long>(chunk));
  spec.i64(static_cast<long long>(count));
  for (const PeFault& pf : faults) {
    spec.i64(pf.pe).i64(static_cast<long long>(pf.target));
    fold_fault(spec, pf.fault);
  }

  obs::ProgressReporter progress("matmul campaign",
                                 static_cast<long>(count));
  TrialPlan plan;
  plan.key = spec.value();
  plan.count = count;
  plan.chunk = chunk;
  plan.threads = camp.threads;
  plan.encode = [&](std::size_t i, std::vector<std::uint8_t>& out) {
    out.push_back(encode_kernel_trial(trials[i]));
  };
  plan.restore = [&](std::size_t i, const std::uint8_t* bytes) {
    trials[i] = decode_kernel_trial(*bytes);
  };
  plan.silent = [&](std::size_t i) {
    return trials[i].corrupted && !trials[i].ecc_detected;
  };
  plan.half_width = proportion_half_width;  // SDC fraction, unscaled
  plan.progress = &progress;

  // Trial loop: each worker re-runs the kernel on its own array replica
  // (run() clears every PE first, so a replica's trial is bit-identical to
  // the legacy reuse of one array). Verdicts land in per-fault slots.
  auto inject_span = tracer.span("inject", "campaign");
  const TrialRun run = run_trials(
      plan, control, [&](int worker, std::size_t begin, std::size_t end) {
        // Worker 0 reuses the golden array (exactly the legacy serial
        // loop); the others run on their own replicas.
        std::optional<kernel::LinearArrayMatmul> replica;
        if (worker != 0) replica.emplace(array.clone());
        kernel::LinearArrayMatmul& worker_array =
            worker == 0 ? array : *replica;
        for (std::size_t i = begin; i < end; ++i) {
          const PeFault& pf = faults[i];
          fault::FaultInjector injector({pf.fault});
          kernel::ProcessingElement& pe = worker_array.pe(pf.pe);
          switch (pf.target) {
            case PeFault::kMultLatch:
            case PeFault::kConfigMult:
              pe.multiplier().set_latch_observer(&injector);
              break;
            case PeFault::kAddLatch:
            case PeFault::kConfigAdd:
              pe.adder().set_latch_observer(&injector);
              break;
            case PeFault::kAccumulator:
              pe.set_storage_observer(&injector);
              break;
          }
          const kernel::MatmulRun faulty = worker_array.run(a, b);
          pe.multiplier().set_latch_observer(nullptr);
          pe.adder().set_latch_observer(nullptr);
          pe.set_storage_observer(nullptr);

          KernelTrial& trial = trials[i];
          trial.corrupted =
              faulty.c.bits != clean.c.bits || faulty.flags != clean.flags;
          trial.ecc_detected = pe.ecc_detections() > 0;
          trial.ecc_corrected = pe.ecc_corrections() > 0;
          progress.tick();
        }
      });
  inject_span.end();
  res.run = run.status;

  // Ordered reduction over the pre-drawn fault list; only accounted (run
  // or restored) chunks contribute.
  auto reduce_span = tracer.span("reduce", "campaign");
  for (std::size_t i = 0; i < count; ++i) {
    if (run.grid.done[i / chunk] == 0) continue;
    const PeFault& pf = faults[i];
    const KernelTrial& trial = trials[i];
    ++res.injected;
    const bool acc_site = pf.target == PeFault::kAccumulator;
    const bool config_site = pf.target == PeFault::kConfigMult ||
                             pf.target == PeFault::kConfigAdd;
    if (acc_site) ++res.acc_injected;
    else if (config_site) ++res.config_injected;
    else ++res.latch_injected;

    if (trial.corrupted) {
      // ECC can still flag what it cannot fix (double errors).
      if (trial.ecc_detected) {
        ++res.detected;
      } else {
        ++res.silent;
        if (acc_site) ++res.acc_silent;
        else if (config_site) ++res.config_silent;
        else ++res.latch_silent;
      }
    } else if (trial.ecc_corrected) {
      ++res.corrected;  // the upset reached storage; SECDED repaired it
    } else {
      ++res.masked;
    }
  }
  reduce_span.end();

  reg.counter("campaign.matmul.trials").add(res.injected);
  reg.counter("campaign.matmul.masked").add(res.masked);
  reg.counter("campaign.matmul.detected").add(res.detected);
  reg.counter("campaign.matmul.corrected").add(res.corrected);
  reg.counter("campaign.matmul.silent").add(res.silent);
  reg.counter("campaign.matmul.acc_injected").add(res.acc_injected);
  reg.counter("campaign.matmul.acc_silent").add(res.acc_silent);
  reg.counter("campaign.matmul.latch_injected").add(res.latch_injected);
  reg.counter("campaign.matmul.latch_silent").add(res.latch_silent);
  reg.counter("campaign.matmul.config_injected").add(res.config_injected);
  reg.counter("campaign.matmul.config_silent").add(res.config_silent);
  return res;
}

}  // namespace flopsim::analysis
