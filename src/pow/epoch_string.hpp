// Global random strings: bins, counters and solution sets
// (Section IV-B and Appendix VIII).
//
// Each epoch the good IDs run a lottery: everyone hashes random
// strings; the smallest outputs are gossiped; each ID w keeps
//   * bins B_j = [2^-j, 2^-(j-1)) for j = 1..b ln(nT), each with a
//     counter capped at c0 ln n ("record-breaking" forwards only),
//   * a solution set R_w of the d0 ln n smallest-output strings seen.
// An ID generated with string s verifies against R_u membership.
//
// BinTable::accept is the whole filter for one offer: a duplicate scan,
// then the retention rule (`accept_fresh`).  When each uid carries one
// output, a uid offered to a table once is rejected on every later
// offer, so an engine that remembers which uids a node was offered
// may skip straight to `accept_fresh` for first sightings (see
// docs/ARCHITECTURE.md, "String protocol engine").  A bin reserves its
// counter_cap slots on its first insert and never regrows, so a table
// allocates once per non-empty bin, on whichever thread fills it
// first.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/rng.hpp"

namespace tg::pow {

/// A lottery string in flight: identified by its hash output and
/// origin.  (The actual bits are irrelevant to the protocol's
/// combinatorics; verification carries the output value.)
struct LotteryString {
  double output = 1.0;        ///< h(s xor r_{i-1}) in [0,1)
  std::uint32_t origin = 0;   ///< node that generated it
  std::uint32_t uid = 0;      ///< unique id for bookkeeping
  friend bool operator==(const LotteryString&, const LotteryString&) = default;
};

/// Bin index for an output: j such that output in [2^-j, 2^-(j-1));
/// clamped to [1, max_bin] (0 when max_bin is 0).  Outputs >= 1 and
/// +inf give bin 1; zero, negative outputs and NaN give max_bin.
[[nodiscard]] std::size_t bin_of(double output, std::size_t max_bin) noexcept;

/// Per-node bins/counters state implementing the forwarding filter.
class BinTable {
 public:
  BinTable(std::size_t bins, std::size_t counter_cap);

  /// Bounded min-set acceptance: accept (and forward) iff the string
  /// enters the counter_cap smallest retained for its bin.  This is
  /// the clarified form of the paper's record-breaking rule (see the
  /// implementation comment and DESIGN.md for why strict record-
  /// breaking does not survive multi-string same-bin late release).
  [[nodiscard]] bool accept(const LotteryString& s);

  /// The retention rule alone, for a string this table was never
  /// offered: `accept` minus its duplicate scan.  `bin` must equal
  /// `bin_of(s.output, bins())`.
  [[nodiscard]] bool accept_fresh(const LotteryString& s, std::size_t bin);

  /// Smallest output seen overall (the node's s^{i*} candidate).
  [[nodiscard]] std::optional<LotteryString> minimum() const;

  /// Assemble the solution set R_w: walk bins from the largest
  /// non-empty j downward collecting retained strings until
  /// `target_size` are gathered (Appendix VIII, Phase 3).
  [[nodiscard]] std::vector<LotteryString> solution_set(
      std::size_t target_size) const;

  /// The constructor's bin count: bins are numbered 1..bins() (0 only
  /// when bins() == 0).
  [[nodiscard]] std::size_t bins() const noexcept { return best_.size() - 1; }

 private:
  std::vector<std::vector<LotteryString>> best_;  ///< per bin, ascending by output
  std::size_t counter_cap_;
};

}  // namespace tg::pow
