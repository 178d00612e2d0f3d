// Seeded, reproducible fault campaigns.
//
// A campaign is a fault list. It can be given explicitly, drawn uniformly
// over the *occupied* latch-bit space of a unit (bits observed carrying
// data under a calibration workload — the architectural-vulnerability-
// factor denominator), drawn from a Poisson upset-rate model (upsets per
// bit-cycle over the physical state bits, the way raw fabric upset rates
// are quoted), aimed at PE accumulator words, or placed in configuration
// memory (persistent stuck-logic faults bounded by a scrub period).
// Everything is driven by one std::mt19937_64 with an explicit algorithm
// on top, so the same seed yields the same fault list on every platform
// and every run.
//
// All sources funnel through one declarative description, CampaignSpec,
// and a single constructor, FaultCampaign::make(spec).
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "rtl/signals.hpp"
#include "units/fp_unit.hpp"

namespace flopsim::fault {

/// Per-stage OR-mask of every latch bit observed set during a calibration
/// run — the sample space for random latch faults. Bits that never carry a
/// one under the workload are excluded: flipping them is either impossible
/// (the lane is unused by this unit) or equivalent to flipping an occupied
/// bit at another time.
struct LatchProfile {
  std::vector<std::array<fp::u64, rtl::kMaxSignals>> occupied;
  bool include_valid = false;  ///< also sample the DONE bit
  bool include_flags = false;  ///< also sample the carried flag byte

  int stages() const { return static_cast<int>(occupied.size()); }
  /// Occupied data bits (plus valid/flag bits when included) per stage,
  /// summed — the AVF denominator.
  long total_bits() const;
};

/// Drive `vectors` deterministic operands (plus drain bubbles) through a
/// fresh clone of the unit's pipeline and OR every latch observed. The
/// passed unit is never touched (const-correct: safe to call on a probe
/// shared across campaign worker threads).
LatchProfile profile_unit_latches(const units::FpUnit& unit, int vectors,
                                  std::uint64_t seed);

/// Deterministic operand stream for campaigns: uniform encodings of the
/// unit's format with alternating subtract for adders. The same (fmt,
/// count, seed) always yields the same stream.
std::vector<units::UnitInput> campaign_workload(units::UnitKind kind,
                                                fp::FpFormat fmt, int count,
                                                std::uint64_t seed);

/// Declarative campaign description: pick a source, fill the fields that
/// source reads (the others are ignored), hand it to FaultCampaign::make.
struct CampaignSpec {
  enum class Source {
    kList,         ///< the explicit `faults` list, verbatim
    kRandom,       ///< `count` uniform draws over `profile` x horizon
    kPoisson,      ///< Poisson(`rate` x profile bits x horizon) draws
    kAccumulator,  ///< `count` single-bit accumulator upsets
    kCram,         ///< `count` persistent configuration upsets
  };

  Source source = Source::kList;
  std::uint64_t seed = 0;
  /// Campaign length in cycles; fault strike times are uniform in
  /// [0, horizon). Read by every random source.
  long horizon = 0;

  std::vector<Fault> faults;  ///< kList only

  /// Occupied-bit sample space (kRandom / kPoisson / kCram). Borrowed, not
  /// owned: must outlive the make() call (not the campaign).
  const LatchProfile* profile = nullptr;

  int count = 0;      ///< kRandom / kAccumulator / kCram: faults to place
  double rate = 0.0;  ///< kPoisson: upsets per bit-cycle

  int rows = 0;        ///< kAccumulator: accumulator bank depth
  int word_bits = 64;  ///< kAccumulator: bits sampled per word (<= 72;
                       ///< > 64 reaches the SECDED check byte)

  /// kCram: cycles between scrub passes; a struck configuration repairs at
  /// the next scrub boundary after the strike. <= 0 means never repaired.
  long scrub_period_cycles = 0;
  /// kCram: width of the stuck mask a single upset imposes — a LUT/routing
  /// flip typically perturbs a couple of adjacent signal bits, not one.
  int mask_bits = 2;
};

class FaultCampaign {
 public:
  /// The one constructor: build the fault list `spec` describes.
  static FaultCampaign make(const CampaignSpec& spec);

  /// An explicit fault list.
  static FaultCampaign from_list(std::vector<Fault> faults);

  /// A campaign lvalue lends its list; a temporary hands it over, so
  /// `for (const Fault& f : FaultCampaign::make(spec).faults())` iterates
  /// a list that lives as long as the loop.
  const std::vector<Fault>& faults() const& { return faults_; }
  std::vector<Fault> faults() && { return std::move(faults_); }
  bool empty() const { return faults_.empty(); }
  std::size_t size() const { return faults_.size(); }

  FaultInjector make_injector() const { return FaultInjector(faults_); }

 private:
  static FaultCampaign make_impl(const CampaignSpec& spec);

  std::vector<Fault> faults_;
};

}  // namespace flopsim::fault
