#include "backends/bytecode.h"

#include "datalog/builtins.h"

namespace carac::backends {

void RunBytecode(const BytecodeProgram& program, ir::ExecContext& ctx,
                 ir::Interpreter& interp) {
  using storage::Value;
  std::vector<Value> regs(program.num_regs, 0);
  BytecodeRuntime rt(program, ctx, interp);
  BytecodeRuntime::Iter* const iters = rt.iters();
  storage::Tuple scratch;
  // Materializes tuple desc `desc`'s registers for kNotContains.
  auto gather = [&](const TupleDesc& desc) -> const storage::Tuple& {
    scratch.clear();
    for (int32_t r : desc.regs) scratch.push_back(regs[r]);
    return scratch;
  };
  auto pred = [](const Insn& insn) {
    return static_cast<datalog::PredicateId>(insn.b);
  };
  auto window = [](const Insn& insn) { return static_cast<uint32_t>(insn.c); };

  size_t pc = 0;
  for (;;) {
    const Insn& insn = program.code[pc];
    switch (insn.op) {
      case Insn::Op::kLoadImm:
        regs[insn.a] = insn.imm;
        ++pc;
        break;
      case Insn::Op::kScanOpen:
        rt.ScanOpen(insn.a, pred(insn), window(insn));
        ++pc;
        break;
      case Insn::Op::kProbeOpenConst:
        rt.ProbeOpen(insn.a, pred(insn), window(insn), insn.d, insn.imm);
        ++pc;
        break;
      case Insn::Op::kProbeOpenReg:
        rt.ProbeOpen(insn.a, pred(insn), window(insn), insn.d, regs[insn.e]);
        ++pc;
        break;
      case Insn::Op::kRangeOpen:
        rt.RangeOpen(insn.a, pred(insn), window(insn), insn.d, regs[insn.e],
                     regs[insn.f], insn.g);
        ++pc;
        break;
      case Insn::Op::kNext:
        pc = rt.Next(insn.a) != nullptr ? pc + 1 : static_cast<size_t>(insn.d);
        break;
      case Insn::Op::kCheckConst:
        pc = (iters[insn.a].current[insn.b] == insn.imm)
                 ? pc + 1
                 : static_cast<size_t>(insn.d);
        break;
      case Insn::Op::kCheckReg:
        pc = (iters[insn.a].current[insn.b] == regs[insn.e])
                 ? pc + 1
                 : static_cast<size_t>(insn.d);
        break;
      case Insn::Op::kBindCol:
        regs[insn.e] = iters[insn.a].current[insn.b];
        ++pc;
        break;
      case Insn::Op::kCompare:
        pc = datalog::EvalComparison(static_cast<datalog::BuiltinOp>(insn.b),
                                     regs[insn.e], regs[insn.f])
                 ? pc + 1
                 : static_cast<size_t>(insn.d);
        break;
      case Insn::Op::kArith: {
        Value z;
        if (datalog::EvalArithmetic(static_cast<datalog::BuiltinOp>(insn.b),
                                    regs[insn.e], regs[insn.f], &z)) {
          regs[insn.g] = z;
          ++pc;
        } else {
          pc = static_cast<size_t>(insn.d);
        }
        break;
      }
      case Insn::Op::kArithCheck: {
        Value z;
        const bool ok =
            datalog::EvalArithmetic(static_cast<datalog::BuiltinOp>(insn.b),
                                    regs[insn.e], regs[insn.f], &z) &&
            z == regs[insn.g];
        pc = ok ? pc + 1 : static_cast<size_t>(insn.d);
        break;
      }
      case Insn::Op::kNotContains: {
        const TupleDesc& desc = program.tuples[insn.a];
        pc = rt.Contains(desc.predicate, gather(desc))
                 ? static_cast<size_t>(insn.d)
                 : pc + 1;
        break;
      }
      case Insn::Op::kSpjBegin:
        rt.SpjBegin(pred(insn));
        ++pc;
        break;
      case Insn::Op::kEmit: {
        Value* out = rt.EmitSlot();
        for (int32_t r : program.tuples[insn.a].regs) *out++ = regs[r];
        ++pc;
        break;
      }
      case Insn::Op::kSpjEnd:
        rt.SpjEnd();
        ++pc;
        break;
      case Insn::Op::kJump:
        pc = static_cast<size_t>(insn.d);
        break;
      case Insn::Op::kSwapClear:
        rt.SwapClear(insn.a);
        ++pc;
        break;
      case Insn::Op::kJumpIfDelta:
        pc = rt.AnyDelta(insn.a) ? static_cast<size_t>(insn.d) : pc + 1;
        break;
      case Insn::Op::kIterBump:
        rt.IterBump();
        ++pc;
        break;
      case Insn::Op::kCallNode:
        rt.CallNode(insn.a);
        ++pc;
        break;
      case Insn::Op::kHalt:
        return;
    }
  }
}

std::string BytecodeProgram::Disassemble() const {
  static const char* kNames[] = {
      "loadimm",  "scan",     "probec",   "prober",   "rangeo",
      "next",     "checkc",   "checkr",   "bind",     "cmp",
      "arith",    "arithchk", "notcont",  "spjbegin", "emit",
      "spjend",   "jump",     "swapclr",  "jmpdelta", "iterbump",
      "callnode", "halt"};
  std::string out;
  for (size_t i = 0; i < code.size(); ++i) {
    const Insn& insn = code[i];
    out += std::to_string(i) + ": ";
    out += kNames[static_cast<int>(insn.op)];
    out += " a=" + std::to_string(insn.a) + " b=" + std::to_string(insn.b) +
           " c=" + std::to_string(insn.c) + " d=" + std::to_string(insn.d) +
           " e=" + std::to_string(insn.e) + " imm=" + std::to_string(insn.imm);
    out += "\n";
  }
  return out;
}

}  // namespace carac::backends
