#include "common/period.hpp"

#include <algorithm>

namespace mcsim {

bool PeriodWalk::fit_state(const Record& a, const Record& b, Shift& shift) {
  if (a.kinds != b.kinds) return false;
  std::array<std::uint64_t, kMovingKinds> min_moved;
  min_moved.fill(kNone);
  std::array<std::uint64_t, kMovingKinds> max_stayed{};
  std::array<bool, kMovingKinds> stayed{};
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    const std::uint64_t va = a.values[i];
    const std::uint64_t vb = b.values[i];
    const Kind kind = a.kinds[i];
    if (kind == Kind::kPlain || kind == Kind::kCounter || va == kNone) {
      if (va != vb) return false;
      continue;
    }
    const auto k = static_cast<std::size_t>(kind);
    if (shift.by[k] != 0 && vb == va + shift.by[k]) {
      min_moved[k] = std::min(min_moved[k], vb);
    } else if (vb == va) {
      max_stayed[k] = std::max(max_stayed[k], va);
      stayed[k] = true;
    } else {
      return false;
    }
  }
  for (std::size_t k = 0; k < kMovingKinds; ++k) {
    // What stays must lie below what moves (compared in `a`, where the
    // moved values had not moved yet), or no threshold separates them.
    if (stayed[k] && min_moved[k] != kNone && max_stayed[k] >= min_moved[k] - shift.by[k])
      return false;
    shift.from[k] = min_moved[k];
  }
  return true;
}

bool PeriodWalk::fit_counters(const Record& c0, const Record& c1, const Record& c2,
                              std::vector<std::uint64_t>& deltas) {
  if (c0.kinds != c1.kinds || c1.kinds != c2.kinds) return false;
  deltas.assign(c1.values.size(), 0);
  for (std::size_t i = 0; i < c1.values.size(); ++i) {
    if (c1.kinds[i] != Kind::kCounter) {
      if (c1.values[i] != c2.values[i]) return false;
      continue;
    }
    const std::uint64_t d = c2.values[i] - c1.values[i];
    if (c1.values[i] < c0.values[i] || c2.values[i] < c1.values[i] ||
        c1.values[i] - c0.values[i] != d)
      return false;
    deltas[i] = d;
  }
  return true;
}

}  // namespace mcsim
