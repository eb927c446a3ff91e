#include "cpu/branch_predictor.hpp"

namespace mcsim {

bool BranchPredictor::predict(std::size_t pc, const Instruction& inst) const {
  if (inst.op == Opcode::kJmp) return true;
  if (inst.hint == BranchHint::kTaken) return true;
  if (inst.hint == BranchHint::kNotTaken) return false;
  return counters_[index(pc)] >= 2;
}

void BranchPredictor::train(std::size_t pc, const Instruction& inst, bool taken) {
  if (inst.op == Opcode::kJmp || inst.hint != BranchHint::kNone) return;
  std::uint8_t& c = counters_[index(pc)];
  if (taken && c < 3) ++c;
  if (!taken && c > 0) --c;
}

}  // namespace mcsim
