#include "rtl/evaluator.hpp"

#include <cstdlib>

#include "obs/trace.hpp"
#include "rtl/simulator.hpp"

namespace flopsim::rtl {

const char* to_string(EvalBackend b) {
  switch (b) {
    case EvalBackend::kAuto: return "auto";
    case EvalBackend::kInterpreted: return "interpreted";
    case EvalBackend::kCompiled: return "compiled";
  }
  return "?";
}

std::optional<EvalBackend> try_parse_backend(const std::string& name) {
  if (name == "interpreted") return EvalBackend::kInterpreted;
  if (name == "compiled") return EvalBackend::kCompiled;
  return std::nullopt;
}

EvalBackend resolve_backend(EvalBackend requested) {
  if (requested != EvalBackend::kAuto) return requested;
  if (const char* env = std::getenv("FLOPSIM_BACKEND")) {
    if (const auto b = try_parse_backend(env)) return *b;
  }
  return EvalBackend::kInterpreted;
}

namespace {

/// The workload bound to an evaluator, plus the clean stage-boundary
/// states B[v][s]: the contents of stage s's output register while
/// holding vector v. Computed once by stepping a real PipelineSim (the
/// latch for (v, s) loads on cycle v + s), then shared immutably across
/// every fork — this is the single source of truth both backends
/// compare against, so they cannot drift from the machine.
struct Bound {
  std::vector<SignalSet> inputs;
  long horizon = 0;
  int vectors = 0;
  int stages = 0;
  std::vector<SignalSet> states;  // [v * stages + s]

  const SignalSet& state(int v, int s) const {
    return states[static_cast<std::size_t>(v) *
                      static_cast<std::size_t>(stages) +
                  static_cast<std::size_t>(s)];
  }
};

std::shared_ptr<const Bound> bind_clean_states(
    const PieceChain& chain, const PipelinePlan& plan,
    const std::vector<SignalSet>& inputs, long horizon) {
  // The one-time full-pipeline simulation is the expensive part of
  // bind(); under --trace= this span lands beneath whatever owns the
  // evaluation (a campaign span, or a serve request's eval span via the
  // installed obs::SpanContext).
  auto span = obs::Tracer::global().span(
      "bind", "evaluator",
      {{"vectors", static_cast<long>(inputs.size())},
       {"stages", plan.stages()}});
  auto b = std::make_shared<Bound>();
  b->inputs = inputs;
  b->horizon = horizon;
  b->vectors = static_cast<int>(inputs.size());
  b->stages = plan.stages();
  b->states.assign(
      static_cast<std::size_t>(b->vectors) * static_cast<std::size_t>(b->stages),
      SignalSet{});
  PipelineSim sim(&chain, plan);
  for (long t = 0; t < horizon; ++t) {
    sim.step(t < b->vectors ? std::optional<SignalSet>(
                                  b->inputs[static_cast<std::size_t>(t)])
                            : std::nullopt);
    const std::vector<SignalSet>& latch = sim.latches();
    for (int s = 0; s < b->stages; ++s) {
      const long v = t - s;
      if (v >= 0 && v < b->vectors) {
        b->states[static_cast<std::size_t>(v) *
                      static_cast<std::size_t>(b->stages) +
                  static_cast<std::size_t>(s)] =
            latch[static_cast<std::size_t>(s)];
      }
    }
  }
  return b;
}

/// What both backends share: the borrowed chain + plan, the result lane,
/// and the bound workload with its clean states.
class BoundEvaluator : public Evaluator {
 public:
  BoundEvaluator(const PieceChain& chain, const PipelinePlan& plan,
                 int result_lane)
      : chain_(&chain), plan_(&plan), result_lane_(result_lane) {}

  void bind(const std::vector<SignalSet>& inputs, long horizon) override {
    bound_ = bind_clean_states(*chain_, *plan_, inputs, horizon);
  }

  int stages() const override { return plan_->stages(); }
  int vectors() const override { return bound_ ? bound_->vectors : 0; }

  const SignalSet& clean_state(int vector, int stage) const override {
    return bound_->state(vector, stage);
  }

 protected:
  /// The upset lands on an occupied latch: a workload vector sits in
  /// that stage on that cycle, and the lane exists.
  bool struck(const LatchUpset& u) const {
    const long v = u.cycle - u.stage;
    return u.stage >= 0 && u.stage < plan_->stages() && v >= 0 &&
           v < bound_->vectors && u.lane >= 0 && u.lane < kMaxSignals;
  }

  const PieceChain* chain_;    // borrowed
  const PipelinePlan* plan_;  // borrowed
  int result_lane_;
  std::shared_ptr<const Bound> bound_;
};

// ---------------------------------------------------------------------------
// Interpreted: the faithful reference. Every trial re-steps a PipelineSim
// over the whole horizon with a one-shot latch flip, comparing the output
// register against the clean run cycle by cycle.

class InterpretedEvaluator final : public BoundEvaluator {
 public:
  InterpretedEvaluator(const PieceChain& chain, const PipelinePlan& plan,
                       int result_lane)
      : BoundEvaluator(chain, plan, result_lane), sim_(&chain, plan) {}

  EvalBackend backend() const override { return EvalBackend::kInterpreted; }

  UpsetTrial trial(const LatchUpset& u) override {
    UpsetTrial t;
    const Bound& b = *bound_;
    const int s_count = plan_->stages();
    const long v = u.cycle - u.stage;
    FlipObserver obs;
    obs.u = u;
    sim_.reset();
    sim_.set_latch_observer(&obs);
    for (long c = 0; c < b.horizon; ++c) {
      sim_.step(c < b.vectors ? std::optional<SignalSet>(
                                    b.inputs[static_cast<std::size_t>(c)])
                              : std::nullopt);
      const SignalSet& out = sim_.output();
      const long ov = c - (s_count - 1);
      const SignalSet* clean = (ov >= 0 && ov < b.vectors)
                                   ? &b.state(static_cast<int>(ov), s_count - 1)
                                   : nullptr;
      const bool clean_valid = clean != nullptr && clean->valid;
      if (out.valid != clean_valid) {
        t.corrupted = true;
      } else if (out.valid &&
                 (out.lane[static_cast<std::size_t>(result_lane_)] !=
                      clean->lane[static_cast<std::size_t>(result_lane_)] ||
                  out.flags != clean->flags)) {
        t.corrupted = true;
      }
      if (c == v + s_count - 1) {
        t.valid = out.valid;
        t.result = out.lane[static_cast<std::size_t>(result_lane_)];
        t.flags = out.flags;
      }
    }
    sim_.set_latch_observer(nullptr);
    if (!struck(u)) return UpsetTrial{};  // bubble strike: provably benign
    t.struck = true;
    return t;
  }

  std::unique_ptr<Evaluator> fork() const override {
    auto e = std::make_unique<InterpretedEvaluator>(*chain_, *plan_,
                                                    result_lane_);
    e->bound_ = bound_;
    return e;
  }

 private:
  /// One-shot latch flip, applied unconditionally at the matching edge —
  /// the same contract as the fault injector (bubbles get flipped too;
  /// they just never reach a valid output).
  struct FlipObserver final : LatchObserver {
    LatchUpset u;
    void on_latch(long cycle, int stage, SignalSet& latch) override {
      if (cycle == u.cycle && stage == u.stage && u.lane >= 0 &&
          u.lane < kMaxSignals) {
        latch.lane[static_cast<std::size_t>(u.lane)] ^=
            fp::u64{1} << (u.bit & 63);
      }
    }
  };

  PipelineSim sim_;
};

// ---------------------------------------------------------------------------
// Compiled: copy the struck clean state, flip, and replay the remaining
// stages through eval_stage() — the pieces PipelineSim::step would run on
// that bundle, and nothing else.

class CompiledEvaluator final : public BoundEvaluator {
 public:
  using BoundEvaluator::BoundEvaluator;

  EvalBackend backend() const override { return EvalBackend::kCompiled; }

  UpsetTrial trial(const LatchUpset& u) override {
    UpsetTrial t;
    if (!struck(u)) return t;  // bubble strike
    const Bound& b = *bound_;
    const int s_count = plan_->stages();
    const int v = static_cast<int>(u.cycle - u.stage);
    SignalSet s = b.state(v, u.stage);
    s.lane[static_cast<std::size_t>(u.lane)] ^= fp::u64{1} << (u.bit & 63);
    for (int st = u.stage + 1; st < s_count; ++st) {
      eval_stage(*chain_, *plan_, st, s);
    }
    const SignalSet& clean = b.state(v, s_count - 1);
    const auto rl = static_cast<std::size_t>(result_lane_);
    t.struck = true;
    t.valid = s.valid;
    t.result = s.lane[rl];
    t.flags = s.flags;
    t.corrupted =
        s.valid != clean.valid ||
        (s.valid && (t.result != clean.lane[rl] || t.flags != clean.flags));
    return t;
  }

  std::unique_ptr<Evaluator> fork() const override {
    auto e =
        std::make_unique<CompiledEvaluator>(*chain_, *plan_, result_lane_);
    e->bound_ = bound_;
    return e;
  }
};

}  // namespace

std::unique_ptr<Evaluator> make_evaluator(EvalBackend backend,
                                          const PieceChain& chain,
                                          const PipelinePlan& plan,
                                          int result_lane) {
  if (resolve_backend(backend) == EvalBackend::kCompiled) {
    return std::make_unique<CompiledEvaluator>(chain, plan, result_lane);
  }
  return std::make_unique<InterpretedEvaluator>(chain, plan, result_lane);
}

}  // namespace flopsim::rtl
