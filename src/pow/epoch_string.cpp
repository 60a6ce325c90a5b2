#include "pow/epoch_string.hpp"

#include <algorithm>
#include <cmath>

namespace tg::pow {

std::size_t bin_of(double output, std::size_t max_bin) noexcept {
  // output in [2^-j, 2^-(j-1))  <=>  j = ceil(-log2(output)), with the
  // boundary 2^-j itself belonging to bin j.  The clamp happens before
  // the cast, in floating point: zero, negative outputs and NaN give
  // +inf or NaN and land in max_bin; outputs >= 1 and +inf land in 1.
  const double j = std::ceil(-std::log2(output));
  if (!(j < static_cast<double>(max_bin))) return max_bin;
  if (j < 1.0) return std::min<std::size_t>(1, max_bin);
  return static_cast<std::size_t>(j);
}

BinTable::BinTable(std::size_t bins, std::size_t counter_cap)
    : best_(bins + 1), counter_cap_(counter_cap) {}

bool BinTable::accept(const LotteryString& s) {
  const std::size_t j = bin_of(s.output, bins());
  for (const auto& existing : best_[j]) {
    if (existing.uid == s.uid) return false;  // duplicate delivery
  }
  return accept_fresh(s, j);
}

bool BinTable::accept_fresh(const LotteryString& s, std::size_t bin) {
  // Bounded min-set per bin.  The paper's rule forwards only strict
  // record-breakers; that breaks Lemma 12(i) when the adversary
  // releases several same-bin strings at different nodes (delivery
  // order then determines which survive where).  Retaining the
  // counter_cap SMALLEST strings per bin — the paper's stated intent
  // in setting c0 >= d'' "so that no smallest values are omitted" —
  // restores set inclusion while keeping state at O(c0 ln n) per bin.
  // (Documented as a protocol clarification in DESIGN.md.)
  //
  // A full bin stays full and its back() never grows, so a string this
  // rule rejects or evicts is rejected again on any later offer.
  //
  // A bin's first insert reserves all counter_cap slots, so a bin never
  // regrows: its storage is allocated once, by whichever thread first
  // fills it, and freed with the table.
  auto& retained = best_[bin];
  const auto by_output = [](const LotteryString& a, const LotteryString& b) {
    return a.output < b.output;
  };
  if (retained.size() >= counter_cap_) {
    // A zero cap retains nothing.
    if (counter_cap_ == 0 || !(s.output < retained.back().output)) {
      return false;
    }
    retained.pop_back();  // evict the largest retained
  } else if (retained.empty()) {
    retained.reserve(counter_cap_);
  }
  retained.insert(
      std::upper_bound(retained.begin(), retained.end(), s, by_output), s);
  return true;
}

std::optional<LotteryString> BinTable::minimum() const {
  // The overall minimum is the smallest element of the deepest
  // non-empty bin (bins are sorted ascending).
  for (std::size_t j = best_.size(); j-- > 0;) {
    if (!best_[j].empty()) return best_[j].front();
  }
  return std::nullopt;
}

std::vector<LotteryString> BinTable::solution_set(
    std::size_t target_size) const {
  std::vector<LotteryString> out;
  for (std::size_t j = best_.size(); j-- > 0 && out.size() < target_size;) {
    for (auto it = best_[j].begin();
         it != best_[j].end() && out.size() < target_size; ++it) {
      out.push_back(*it);
    }
  }
  return out;
}

}  // namespace tg::pow
