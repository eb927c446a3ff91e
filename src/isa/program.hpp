// A Program is the unit of work one simulated processor executes:
// a flat instruction vector (branch targets are absolute indices)
// plus a symbol table and initial-data image for shared memory.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "isa/instruction.hpp"

namespace mcsim {

struct DataInit {
  Addr addr = 0;
  Word value = 0;

  bool operator==(const DataInit&) const = default;
};

class Program {
 public:
  Program() = default;
  explicit Program(std::vector<Instruction> insts) : insts_(std::move(insts)) {}

  const std::vector<Instruction>& instructions() const { return insts_; }
  std::vector<Instruction>& instructions() { return insts_; }

  std::size_t size() const { return insts_.size(); }
  bool empty() const { return insts_.empty(); }
  const Instruction& at(std::size_t pc) const { return insts_.at(pc); }

  /// Initial values written into shared memory before the program runs.
  const std::vector<DataInit>& data() const { return data_; }
  void add_data(Addr addr, Word value) { data_.push_back({addr, value}); }

  /// Named shared-memory locations (for readable examples and traces).
  void add_symbol(const std::string& name, Addr addr) { symbols_[name] = addr; }
  const std::map<std::string, Addr>& symbols() const { return symbols_; }

  /// Reverse-lookup of the symbol covering `addr`, or "" when unnamed.
  std::string symbol_for(Addr addr) const;

  /// Full disassembly listing, one instruction per line.
  std::string listing() const;

 private:
  std::vector<Instruction> insts_;
  std::vector<DataInit> data_;
  std::map<std::string, Addr> symbols_;
};

}  // namespace mcsim
