// Lane def-use inference over a piece chain.
//
// Pieces are opaque `std::function<void(SignalSet&)>` blobs, so their
// read/write sets cannot be gathered syntactically. Instead the chain is
// executed on a handful of stimulus vectors with a LaneAccessListener
// attached (rtl/signals.hpp), and every mutable access is classified by
// observation:
//
//   * const operator[] access        -> definite read
//   * output value != input value    -> write (for that vector)
//   * perturbing the lane's input changes any output lane, the flag byte,
//     or the written value           -> read (the piece's behavior depends
//                                       on the lane's prior contents)
//
// Lanes never named in the contract start poisoned (a per-lane pattern),
// so a piece that zero-initializes a lane registers as a writer rather
// than a reader of a coincidentally-zero value. Classification errs
// toward the conservative side: a missed read can suppress a dead-write
// warning but can never fabricate an uninitialized-read error.
#pragma once

#include <array>
#include <vector>

#include "lint/lint.hpp"
#include "rtl/piece.hpp"
#include "rtl/signals.hpp"

namespace flopsim::lint {

struct PieceAccess {
  /// Lane read by this piece (behavior depends on the lane's prior value).
  std::array<bool, rtl::kMaxSignals> read{};
  /// Lane changed by this piece in at least one stimulus vector.
  std::array<bool, rtl::kMaxSignals> write_any{};
  /// Lane changed by this piece in every stimulus vector — the only
  /// writes that can kill an earlier write unconditionally.
  std::array<bool, rtl::kMaxSignals> write_always{};
  /// Raw out-of-range indices this piece accessed (deduplicated).
  std::vector<int> out_of_range;
  /// Two runs on identical input produced different outputs.
  bool nondeterministic = false;
  /// The eval accessed at least one lane.
  bool touched = false;
  /// The piece changed SignalSet::flags in at least one stimulus vector.
  bool writes_flags = false;
  /// The piece changed SignalSet::valid in at least one stimulus vector.
  /// Units never should (DONE belongs to the simulator); the campaign
  /// fast path refuses chains where this fires (analysis/seu.cpp).
  bool writes_valid = false;
};

struct ChainAccess {
  std::vector<PieceAccess> piece;  ///< one entry per chain piece
  /// width_after[p][L]: max effective bit width observed in lane L right
  /// after piece p evaluated (two's-complement aware, so a negative
  /// running exponent measures as its signed width, not 64).
  std::vector<std::array<int, rtl::kMaxSignals>> width_after;
};

/// Effective hardware width of a lane value: bits needed to represent it
/// unsigned, or as a two's-complement value if the top bits are a sign
/// run — whichever is narrower. Zero for 0.
int effective_width(fp::u64 value);

/// Run the inference. Requires every piece to have a non-null eval (the
/// structural rules reject such chains before inference runs).
ChainAccess infer_chain_access(const rtl::PieceChain& chain,
                               const ChainContract& contract,
                               const Options& opts);

}  // namespace flopsim::lint
