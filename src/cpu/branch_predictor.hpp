// Branch prediction: a branch target buffer of 2-bit saturating
// counters [Lee & Smith 84], with static hints taking precedence (the
// paper's lock idiom assumes "the branch predictor takes the path that
// assumes the lock synchronization succeeds").
#pragma once

#include <cstdint>
#include <memory_resource>
#include <vector>

#include "common/types.hpp"
#include "isa/instruction.hpp"

namespace mcsim {

class BranchPredictor {
 public:
  /// Counters from `arena`.
  explicit BranchPredictor(std::uint32_t entries,
                           std::pmr::memory_resource* arena = std::pmr::get_default_resource())
      : counters_(table_size(entries), 1, arena) {}

  /// Predicted direction for the conditional branch at static index `pc`.
  bool predict(std::size_t pc, const Instruction& inst) const;

  /// Train the dynamic predictor with the resolved direction.
  void train(std::size_t pc, const Instruction& inst, bool taken);

  /// Visit the counters for a PeriodWalk.
  template <typename Walk>
  void walk(Walk& w) const {
    // Eight 2-bit counters per recorded word, to keep a record short.
    for (std::size_t i = 0; i < counters_.size(); i += 8) {
      std::uint64_t packed = 0;
      for (std::size_t j = i; j < counters_.size() && j < i + 8; ++j)
        packed |= std::uint64_t{counters_[j]} << (8 * (j - i));
      w.plain(packed);
    }
  }

 private:
  static std::size_t table_size(std::uint32_t entries) { return entries == 0 ? 1 : entries; }
  std::size_t index(std::size_t pc) const { return pc % counters_.size(); }
  std::pmr::vector<std::uint8_t> counters_;  ///< 2-bit: 0,1 = not taken; 2,3 = taken
};

}  // namespace mcsim
