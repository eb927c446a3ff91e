// Figure 5: step-by-step contents of the reorder buffer, store buffer,
// and speculative-load buffer while executing
//
//   read A     (miss)
//   write B    (miss)
//   write C    (miss)
//   read D     (hit)
//   read E[D]  (miss)
//
// under SC with speculative loads + exclusive prefetch for stores, and
// with an invalidation for D arriving mid-flight (a second processor
// writes D). The paper's nine event kinds all occur:
//
//   1. loads issued speculatively, writes prefetched exclusively
//   2/3. ownership for B and value for A arrive
//   4. write B completes once A retires (precise interrupts)
//   5. invalidation for D squashes the done speculative loads D, E[D]
//   6. read D reissued (still speculative: store C pending)
//   7. new value of D arrives; read E[D] reissued at the new address
//   8. ownership for C arrives; store C and the D entry retire
//   9. value for E[D] arrives; execution completes
//
// The run also checks the correction mechanism end to end: the final
// register value must be E[new D], not E[old D].
#include <cstdio>
#include <string>

#include "isa/builder.hpp"
#include "sim/machine.hpp"

using namespace mcsim;

namespace {

constexpr Addr kA = 0x2000;
constexpr Addr kB = 0x3010;
constexpr Addr kC = 0x4020;  // preloaded dirty in P1: its ownership arrives late
constexpr Addr kD = 0x5030;
constexpr Addr kEBase = 0x6040;
constexpr Word kDOld = 5;
constexpr Word kDNew = 2;

Program p0_program() {
  ProgramBuilder b;
  b.data(kD, kDOld);
  b.data(kEBase + 4 * kDOld, 555);
  b.data(kEBase + 4 * kDNew, 222);
  b.load(1, ProgramBuilder::abs(kA));                // read A    (miss)
  b.store(0, ProgramBuilder::abs(kB));               // write B   (miss)
  b.store(0, ProgramBuilder::abs(kC));               // write C   (miss, dirty remote)
  b.load(2, ProgramBuilder::abs(kD));                // read D    (hit)
  b.load(3, ProgramBuilder::indexed(kEBase, 2, 2));  // read E[D] (miss)
  b.halt();
  return b.build();
}

Program p1_program() {
  // Delay ~55 cycles, then write D so the invalidation reaches P0
  // after write B completes but while the speculative loads of D and
  // E[D] are done-but-unretired (store C still pending). The store's
  // address is computed from the delay chain so not even the prefetch
  // engine can touch D earlier.
  ProgramBuilder b;
  const int kChain = 55;
  for (int i = 0; i < kChain; ++i) b.addi(1, 1, 1);         // r1 = kChain
  b.addi(4, 1, static_cast<std::int64_t>(kD) - kChain);     // r4 = &D
  b.li(2, kDNew);
  b.store(2, ProgramBuilder::based(4));
  b.halt();
  return b.build();
}

}  // namespace

int main() {
  SystemConfig cfg = SystemConfig::paper_default(2, ConsistencyModel::kSC);
  cfg.core.speculative_loads = true;
  cfg.core.prefetch = PrefetchMode::kNonBinding;
  cfg.core.rob_entries = 128;  // fits P1's delay chain under the ideal frontend

  Machine m(cfg, {p0_program(), p1_program()});
  m.preload_shared(0, kD);      // "read D (hit)"
  m.preload_exclusive(1, kC);   // C's ownership must be recalled: arrives last
  m.trace_events().enable();

  std::printf("Figure 5 trace: buffers of P0 at every change\n");
  std::printf("(SC, speculative loads + exclusive prefetch; P1 invalidates D)\n\n");

  std::string last;
  int event = 0;
  while (!m.done() && m.now() < cfg.max_cycles) {
    m.step();
    std::string rob = m.core(0).rob_dump();
    std::string sb = m.core(0).lsu().store_buffer_dump();
    std::string slb = m.core(0).lsu().spec_buffer_dump();
    std::string snapshot = rob + "|" + sb + "|" + slb;
    if (snapshot != last) {
      last = snapshot;
      std::printf("--- event %d (cycle %llu)\n", ++event,
                  static_cast<unsigned long long>(m.now() - 1));
      std::printf("  reorder buffer  : %s\n", rob.empty() ? "(empty)" : rob.c_str());
      std::printf("  store buffer    : %s\n", sb.empty() ? "(empty)" : sb.c_str());
      std::printf("  spec-load buffer: %s\n", slb.empty() ? "(empty)" : slb.c_str());
    }
  }

  // P0's speculative-load buffer, line and squash instants, in record
  // order (P0's events are on track 0).
  std::printf("\nkey pipeline events:\n");
  for (const TraceEventSink::Event& e : m.trace_events().events()) {
    if (e.track != 0 || e.phase != TraceEventSink::Phase::kInstant) continue;
    const std::string name = TraceEventSink::name_of(e.name);
    if (name != "squash" && name.rfind("slb-", 0) != 0 && name.rfind("line:", 0) != 0)
      continue;
    std::string args;
    for (int k = 0; k < 2; ++k) {
      if (e.key[k] == TraceEventSink::kNoArg) continue;
      args += ' ';
      args += TraceEventSink::name_of(e.key[k]);
      args += '=';
      args += std::to_string(e.value[k]);
    }
    std::printf("  %6llu  %-16s%s\n", static_cast<unsigned long long>(e.ts), name.c_str(),
                args.c_str());
  }

  Word r3 = m.core(0).reg(3);
  std::printf("\nfinal r3 (E[D]) = %u; expected %u (value at E[new D]) -> %s\n", r3, 222u,
              r3 == 222 ? "CORRECTION MECHANISM OK" : "MISMATCH");
  std::printf("squashes on P0: %llu, reissues: %llu\n",
              static_cast<unsigned long long>(m.core(0).stats().get("squashes")),
              static_cast<unsigned long long>(m.core(0).lsu().stats().get("spec_reissue") +
                                              m.core(0).lsu().stats().get("load_reissued")));
  return r3 == 222 ? 0 : 1;
}
