// The unified evaluation API for campaign trial loops.
//
// Two backends answer the same question — "flip this latched bit at
// this (cycle, stage); what reaches the output register?" — at very
// different speeds:
//
//   * kInterpreted: the faithful reference. Each trial re-steps a
//     PipelineSim over the whole horizon with a one-shot injector, the
//     way the campaigns always ran.
//   * kCompiled: bind-once/replay-suffix. bind() precomputes the clean
//     stage-boundary states B[v][s] for every workload vector by
//     stepping a real PipelineSim once; a trial then copies the struck
//     state, flips the bit, and runs the remaining stages' pieces
//     straight from the chain and plan through eval_stage() — the same
//     per-stage helper PipelineSim::step runs — so the cost is
//     O(pieces downstream of the strike) instead of O(horizon x pieces).
//
// Both backends are locked to the same contract: identical UpsetTrial
// results for identical upsets, byte for byte. The compiled backend
// keeps it by construction: it runs exactly the pieces the machine runs
// on exactly the states the machine latches.
//
// Thread safety: bound state is immutable and shared; call fork() to get
// a per-worker evaluator (cheap — the B[v][s] table is shared behind
// shared_ptr).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "rtl/pipeline.hpp"
#include "rtl/signals.hpp"

namespace flopsim::rtl {

/// Backend selection, shared by CampaignSpec, the campaign configs, and
/// the --backend= CLI flag.
enum class EvalBackend {
  kAuto,         ///< resolve via FLOPSIM_BACKEND, default interpreted
  kInterpreted,
  kCompiled,
};

const char* to_string(EvalBackend b);
/// Parse "interpreted" / "compiled" (the --backend= value set); nullopt
/// on anything else. "auto" intentionally has no spelling: auto is the
/// absence of the flag.
std::optional<EvalBackend> try_parse_backend(const std::string& name);
/// kAuto -> the FLOPSIM_BACKEND environment variable when set to a valid
/// backend name, else kInterpreted (exactly how threads=0 resolves via
/// FLOPSIM_THREADS). Non-auto values pass through.
EvalBackend resolve_backend(EvalBackend requested);

/// One latch upset: flip `bit` of data lane `lane` in stage `stage`'s
/// output register on clock `cycle`.
struct LatchUpset {
  long cycle = 0;
  int stage = 0;
  int lane = 0;
  int bit = 0;
};

/// What the upset did to the registered output of the vector it struck.
struct UpsetTrial {
  /// The upset landed on an occupied latch (a workload vector was in that
  /// stage on that cycle). False = bubble strike: nothing valid was hit,
  /// every other field is default.
  bool struck = false;
  /// Output observables of the struck vector differ from its clean run
  /// (valid bit, result lane, or flags).
  bool corrupted = false;
  bool valid = false;        ///< faulty DONE bit at the output register
  fp::u64 result = 0;        ///< faulty result-lane value
  std::uint8_t flags = 0;    ///< faulty carried flags
};

/// A bound evaluator answers upset trials against one fixed workload.
/// Lifecycle: make_evaluator() -> bind() once -> trial() many.
class Evaluator {
 public:
  virtual ~Evaluator() = default;

  virtual EvalBackend backend() const = 0;

  /// Bind the workload: `inputs` are the packed operand bundles presented
  /// on cycles 0..inputs.size()-1 (bubbles after), `horizon` the total
  /// cycles a campaign steps. Precomputes whatever the backend reuses
  /// across trials.
  virtual void bind(const std::vector<SignalSet>& inputs, long horizon) = 0;

  virtual int stages() const = 0;
  virtual int vectors() const = 0;

  /// Clean stage-boundary state: the contents of stage `stage`'s output
  /// register while holding vector `vector` (== the PipelineSim latch at
  /// cycle vector + stage). Valid after bind(); stage stages()-1 is the
  /// clean registered output.
  virtual const SignalSet& clean_state(int vector, int stage) const = 0;

  /// Run one upset trial. Requires bind().
  virtual UpsetTrial trial(const LatchUpset& upset) = 0;

  /// A per-worker evaluator sharing this one's bound state. Evaluators
  /// are not safe for concurrent trial() calls; forks are.
  virtual std::unique_ptr<Evaluator> fork() const = 0;
};

/// Build an evaluator over a borrowed chain + plan (both must outlive the
/// evaluator and every fork, like PipelineSim's borrow). `backend` may be
/// kAuto (resolved here); `result_lane` is the lane the output register
/// carries out.
std::unique_ptr<Evaluator> make_evaluator(EvalBackend backend,
                                          const PieceChain& chain,
                                          const PipelinePlan& plan,
                                          int result_lane);

}  // namespace flopsim::rtl
