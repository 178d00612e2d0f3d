#include "fault/campaign.hpp"

#include <bit>
#include <cmath>
#include <random>
#include <stdexcept>

#include "fault/secded.hpp"
#include "obs/metrics.hpp"

namespace flopsim::fault {

namespace {

// Deterministic helpers on top of mt19937_64: the standard distributions
// are implementation-defined, so campaigns roll their own to keep a seed
// reproducible across toolchains.
std::uint64_t draw_below(std::mt19937_64& rng, std::uint64_t n) {
  return n == 0 ? 0 : rng() % n;
}

double draw_unit(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

long draw_poisson(std::mt19937_64& rng, double mean) {
  if (mean <= 0.0) return 0;
  if (mean < 30.0) {
    // Knuth: multiply uniforms until the product drops below e^-mean.
    const double limit = std::exp(-mean);
    long k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= draw_unit(rng);
    } while (p > limit);
    return k - 1;
  }
  // Normal approximation is fine at campaign scale.
  const double u1 = draw_unit(rng);
  const double u2 = draw_unit(rng);
  const double z =
      std::sqrt(-2.0 * std::log(u1 + 1e-18)) * std::cos(6.283185307179586 * u2);
  const double v = mean + std::sqrt(mean) * z;
  return v < 0.0 ? 0 : static_cast<long>(v + 0.5);
}

}  // namespace

long LatchProfile::total_bits() const {
  long bits = 0;
  for (const auto& stage : occupied) {
    for (fp::u64 mask : stage) bits += std::popcount(mask);
  }
  if (include_valid) bits += stages();
  if (include_flags) bits += 8L * stages();
  return bits;
}

LatchProfile profile_unit_latches(const units::FpUnit& unit, int vectors,
                                  std::uint64_t seed) {
  units::FpUnit probe = unit.clone();  // fresh pipeline; caller's untouched
  LatchProfile profile;
  profile.occupied.assign(static_cast<std::size_t>(probe.stages()), {});
  const std::vector<units::UnitInput> workload =
      campaign_workload(probe.kind(), probe.format(), vectors, seed);
  const int total = vectors + probe.latency() + 2;
  for (int t = 0; t < total; ++t) {
    if (t < vectors) {
      probe.step(workload[static_cast<std::size_t>(t)]);
    } else {
      probe.step(std::nullopt);
    }
    const std::vector<rtl::SignalSet>& latches = probe.latches();
    for (std::size_t s = 0; s < latches.size(); ++s) {
      for (int l = 0; l < rtl::kMaxSignals; ++l) {
        profile.occupied[s][static_cast<std::size_t>(l)] |= latches[s][l];
      }
    }
  }
  return profile;
}

std::vector<units::UnitInput> campaign_workload(units::UnitKind kind,
                                                fp::FpFormat fmt, int count,
                                                std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x5eu);
  std::vector<units::UnitInput> workload;
  workload.reserve(static_cast<std::size_t>(count));
  const fp::u64 mask = fmt.bits_mask();
  for (int i = 0; i < count; ++i) {
    units::UnitInput in;
    in.a = rng() & mask;
    in.b = rng() & mask;
    in.subtract = kind == units::UnitKind::kAdder && (i & 1) != 0;
    if (kind == units::UnitKind::kMac) in.c = rng() & mask;
    workload.push_back(in);
  }
  return workload;
}

namespace {

// Flatten the profile's occupied bits into (stage, lane, bit) triples so
// uniform sampling is an index draw.
struct BitSite {
  int stage;
  int lane;
  int bit;
};

std::vector<BitSite> flatten(const LatchProfile& profile) {
  std::vector<BitSite> sites;
  for (int s = 0; s < profile.stages(); ++s) {
    const auto& lanes = profile.occupied[static_cast<std::size_t>(s)];
    for (int l = 0; l < rtl::kMaxSignals; ++l) {
      fp::u64 mask = lanes[static_cast<std::size_t>(l)];
      while (mask != 0) {
        const int bit = std::countr_zero(mask);
        sites.push_back({s, l, bit});
        mask &= mask - 1;
      }
    }
    if (profile.include_valid) sites.push_back({s, kValidLane, 0});
    if (profile.include_flags) {
      for (int b = 0; b < 8; ++b) sites.push_back({s, kFlagsLane, b});
    }
  }
  return sites;
}

std::vector<Fault> place_faults(const LatchProfile& profile, long horizon,
                                long count, std::mt19937_64& rng) {
  const std::vector<BitSite> sites = flatten(profile);
  std::vector<Fault> faults;
  if (sites.empty() || horizon <= 0) return faults;
  faults.reserve(static_cast<std::size_t>(count));
  for (long i = 0; i < count; ++i) {
    const BitSite& site =
        sites[static_cast<std::size_t>(draw_below(rng, sites.size()))];
    Fault f;
    f.cycle = static_cast<long>(
        draw_below(rng, static_cast<std::uint64_t>(horizon)));
    f.site = FaultSite::kStageLatch;
    f.index = site.stage;
    f.lane = site.lane;
    f.bit = site.bit;
    faults.push_back(f);
  }
  return faults;
}

// Uniform draws over the profile's occupied *data* bits only (config upsets
// rewire datapath logic; the valid/flag shift registers are user state and
// already covered by kStageLatch). The stuck mask spans `mask_bits`
// occupied bits upward from the struck one; repair lands on the first
// scrub boundary after the strike.
std::vector<Fault> place_config_faults(const LatchProfile& profile,
                                       long horizon, long count,
                                       long scrub_period_cycles, int mask_bits,
                                       std::mt19937_64& rng) {
  std::vector<BitSite> sites;
  for (const BitSite& s : flatten(profile)) {
    if (s.lane >= 0) sites.push_back(s);
  }
  std::vector<Fault> faults;
  if (sites.empty() || horizon <= 0) return faults;
  faults.reserve(static_cast<std::size_t>(count));
  for (long i = 0; i < count; ++i) {
    const BitSite& site =
        sites[static_cast<std::size_t>(draw_below(rng, sites.size()))];
    const fp::u64 occupied =
        profile.occupied[static_cast<std::size_t>(site.stage)]
                        [static_cast<std::size_t>(site.lane)];
    const int width = mask_bits < 1 ? 1 : mask_bits;
    fp::u64 span = width >= 64 ? ~fp::u64{0}
                               : ((fp::u64{1} << width) - 1) << site.bit;
    Fault f;
    f.cycle = static_cast<long>(
        draw_below(rng, static_cast<std::uint64_t>(horizon)));
    f.site = FaultSite::kConfig;
    f.index = site.stage;
    f.lane = site.lane;
    f.bit = site.bit;
    f.mask = span & occupied;  // nonzero: the struck bit itself is occupied
    f.stuck = rng() & f.mask;
    f.repair_cycle =
        scrub_period_cycles > 0
            ? (f.cycle / scrub_period_cycles + 1) * scrub_period_cycles
            : -1;
    faults.push_back(f);
  }
  return faults;
}

const LatchProfile& require_profile(const CampaignSpec& spec) {
  if (spec.profile == nullptr) {
    throw std::invalid_argument("CampaignSpec: this source needs a profile");
  }
  return *spec.profile;
}

}  // namespace

FaultCampaign FaultCampaign::make(const CampaignSpec& spec) {
  FaultCampaign c = make_impl(spec);
  // Registry tallies only — draw sequences and fault lists are untouched.
  obs::Registry& reg = obs::Registry::global();
  reg.counter("fault.campaigns_built").inc();
  reg.counter("fault.faults_drawn").add(static_cast<long>(c.faults_.size()));
  return c;
}

FaultCampaign FaultCampaign::make_impl(const CampaignSpec& spec) {
  using Source = CampaignSpec::Source;
  FaultCampaign c;
  switch (spec.source) {
    case Source::kList:
      c.faults_ = spec.faults;
      return c;
    case Source::kRandom: {
      std::mt19937_64 rng(spec.seed);
      c.faults_ =
          place_faults(require_profile(spec), spec.horizon, spec.count, rng);
      return c;
    }
    case Source::kPoisson: {
      if (spec.rate < 0.0) {
        throw std::invalid_argument("FaultCampaign: negative upset rate");
      }
      const LatchProfile& profile = require_profile(spec);
      std::mt19937_64 rng(spec.seed);
      const double mean = spec.rate *
                          static_cast<double>(profile.total_bits()) *
                          static_cast<double>(spec.horizon);
      const long count = draw_poisson(rng, mean);
      c.faults_ = place_faults(profile, spec.horizon, count, rng);
      return c;
    }
    case Source::kAccumulator: {
      if (spec.rows <= 0 || spec.word_bits <= 0 ||
          spec.word_bits > kSecdedWordBits) {
        throw std::invalid_argument("FaultCampaign: bad accumulator geometry");
      }
      std::mt19937_64 rng(spec.seed);
      c.faults_.reserve(static_cast<std::size_t>(spec.count));
      for (int i = 0; i < spec.count; ++i) {
        Fault f;
        f.site = FaultSite::kAccumulator;
        f.cycle = static_cast<long>(draw_below(
            rng,
            static_cast<std::uint64_t>(spec.horizon > 0 ? spec.horizon : 1)));
        f.index = static_cast<int>(
            draw_below(rng, static_cast<std::uint64_t>(spec.rows)));
        f.bit = static_cast<int>(
            draw_below(rng, static_cast<std::uint64_t>(spec.word_bits)));
        c.faults_.push_back(f);
      }
      return c;
    }
    case Source::kCram: {
      std::mt19937_64 rng(spec.seed);
      c.faults_ = place_config_faults(require_profile(spec), spec.horizon,
                                      spec.count, spec.scrub_period_cycles,
                                      spec.mask_bits, rng);
      return c;
    }
  }
  throw std::invalid_argument("CampaignSpec: unknown source");
}

FaultCampaign FaultCampaign::from_list(std::vector<Fault> faults) {
  CampaignSpec spec;
  spec.source = CampaignSpec::Source::kList;
  spec.faults = std::move(faults);
  return make(spec);
}

}  // namespace flopsim::fault
