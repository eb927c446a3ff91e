// A lock-protected work queue: one processor enqueues tasks, the
// others dequeue and process them (summing into private accumulators,
// then combining under a lock). A realistic mixed read/write/sync
// workload on the public API, run under every model with the paper's
// techniques enabled.
//
//   $ ./work_queue [workers] [tasks]
#include <cstdio>
#include <string>

#include "isa/builder.hpp"
#include "sim/machine.hpp"
#include "sim/options.hpp"

using namespace mcsim;

namespace {

constexpr Addr kQueueLock = 0x1000;
constexpr Addr kQueueHead = 0x1100;  // next index to dequeue
constexpr Addr kQueueTail = 0x1200;  // one past last valid
constexpr Addr kDone = 0x1300;       // producer finished flag
constexpr Addr kItems = 0x2000;      // task payloads
constexpr Addr kResultLock = 0x3000;
constexpr Addr kResult = 0x3100;
/// Task payloads fill [kItems, kResultLock), one word each.
constexpr std::uint64_t kMaxTasks = (kResultLock - kItems) / 4;

Program producer(std::uint32_t tasks) {
  ProgramBuilder b;
  for (std::uint32_t i = 0; i < tasks; ++i) {
    b.li(1, i + 1);  // payload: task i has value i+1
    b.store(1, ProgramBuilder::abs(kItems + 4 * i));
    b.lock(kQueueLock);
    b.load(2, ProgramBuilder::abs(kQueueTail));
    b.addi(2, 2, 1);
    b.store(2, ProgramBuilder::abs(kQueueTail));
    b.unlock(kQueueLock);
  }
  b.li(3, 1);
  b.store_rel(3, ProgramBuilder::abs(kDone));
  b.halt();
  return b.build();
}

Program worker() {
  // Test-and-test&set structure: the queue lock is attempted only when
  // the (read-only) head/tail probe sees work. Spinning with plain
  // reads instead of test&set keeps the lock line free for whoever
  // needs it — with a naive TAS spin, a deterministic machine starves
  // the producer forever (the classic TAS fairness pathology).
  ProgramBuilder b;
  b.li(10, 0);  // private sum
  b.label("loop");
  b.load_acq(1, ProgramBuilder::abs(kQueueHead));
  b.load_acq(2, ProgramBuilder::abs(kQueueTail));
  b.blt(1, 2, "try_lock");
  b.load_acq(3, ProgramBuilder::abs(kDone));
  b.beq(3, 0, "loop", BranchHint::kTaken);  // not done: keep polling
  // Producer finished and the queue looked empty: every task has been
  // claimed (head moves before processing). Combine and exit.
  b.lock(kResultLock);
  b.load(4, ProgramBuilder::abs(kResult));
  b.add(4, 4, 10);
  b.store(4, ProgramBuilder::abs(kResult));
  b.unlock(kResultLock);
  b.halt();
  b.label("try_lock");
  b.lock(kQueueLock);
  b.load(1, ProgramBuilder::abs(kQueueHead));
  b.load(2, ProgramBuilder::abs(kQueueTail));
  b.bge(1, 2, "lost_race");  // someone dequeued it first
  b.addi(5, 1, 1);
  b.store(5, ProgramBuilder::abs(kQueueHead));
  b.unlock(kQueueLock);
  b.load(6, ProgramBuilder::indexed(kItems, 1, 2));  // payload of task `head`
  b.add(10, 10, 6);
  b.jmp("loop");
  b.label("lost_race");
  b.unlock(kQueueLock);
  b.jmp("loop");
  return b.build();
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t workers = 3, tasks = 12;
  std::string err = "too many arguments";
  if (argc > 3 ||
      (argc > 1 && !parse_uint(argv[1], "workers", 1, kMaxProcs - 1, workers, err)) ||
      (argc > 2 && !parse_uint(argv[2], "tasks", 0, kMaxTasks, tasks, err))) {
    std::fprintf(stderr, "%s\nusage: work_queue [workers 1..%u] [tasks 0..%llu]\n",
                 err.c_str(), kMaxProcs - 1, static_cast<unsigned long long>(kMaxTasks));
    return 1;
  }
  const auto expected = static_cast<Word>(tasks * (tasks + 1) / 2);
  std::printf("work queue: 1 producer, %llu workers, %llu tasks (expected sum %u)\n\n",
              static_cast<unsigned long long>(workers), static_cast<unsigned long long>(tasks),
              expected);
  std::printf("%-6s %12s %12s %10s\n", "model", "cycles", "sum", "status");

  for (ConsistencyModel model : {ConsistencyModel::kSC, ConsistencyModel::kPC,
                                 ConsistencyModel::kWC, ConsistencyModel::kRC}) {
    std::vector<Program> programs;
    programs.push_back(producer(tasks));
    for (std::uint32_t i = 0; i < workers; ++i) programs.push_back(worker());
    SystemConfig cfg = SystemConfig::realistic(workers + 1, model);
    cfg.core.speculative_loads = true;
    cfg.core.prefetch = PrefetchMode::kNonBinding;
    Machine m(cfg, std::move(programs));
    RunResult r = m.run();
    Word sum = m.read_word(kResult);
    std::printf("%-6s %12llu %12u %10s\n", to_string(model),
                static_cast<unsigned long long>(r.cycles), sum,
                r.deadlocked ? "DEADLOCK" : sum == expected ? "ok" : "WRONG");
    if (r.deadlocked || sum != expected) return 1;
  }
  std::printf("\nEvery task was processed exactly once under every model.\n");
  return 0;
}
