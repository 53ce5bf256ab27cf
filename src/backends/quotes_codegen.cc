#include "backends/quotes_codegen.h"

#include <charconv>
#include <limits>
#include <string>

namespace carac::backends {

namespace {

using datalog::BuiltinOp;

// Printed operand forms.
struct Reg {  // r<index>
  int32_t index;
};
struct Row {  // c<iter>[<col>]: a column of an iterator slot's current row
  int32_t iter;
  int32_t col;
};
struct Label {  // L<pc>
  int64_t pc;
};
struct Unsigned {  // <value>u: a static operand of a storage callback
  int64_t value;
};
struct Literal {  // <value>LL
  int64_t value;
};

/// Appends to the generated source. Each piece is appended in place, so
/// printing allocates nothing per instruction.
class Printer {
 public:
  template <typename... Pieces>
  void Print(const Pieces&... pieces) {
    (Put(pieces), ...);
  }

  std::string Take() { return std::move(out_); }

 private:
  void Put(const char* text) { out_ += text; }
  void Put(int64_t value) {
    char buf[24];
    out_.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
  }
  void Put(Reg reg) { Print("r", int64_t{reg.index}); }
  void Put(Row row) {
    Print("c", int64_t{row.iter}, "[", int64_t{row.col}, "]");
  }
  void Put(Label label) { Print("L", label.pc); }
  void Put(Unsigned u) { Print(u.value, "u"); }
  void Put(Literal lit) {
    // -9223372036854775808LL would negate an out-of-range literal.
    if (lit.value == std::numeric_limits<int64_t>::min()) {
      Put("(-9223372036854775807LL - 1)");
    } else {
      Print(lit.value, "LL");
    }
  }

  std::string out_;
};

/// `<type> <prefix>0 = 0, <prefix>1 = 0, ...;` for n > 0.
void PrintLocals(Printer* p, const char* type, const char* prefix,
                 int32_t n) {
  if (n == 0) return;
  p->Print("  ", type);
  for (int32_t i = 0; i < n; ++i) {
    p->Print(i > 0 ? ", " : " ", prefix, int64_t{i}, " = 0");
  }
  p->Print(";\n");
}

/// Declares the desc's registers as the local row `t` (nothing for zero
/// arity: C++ has no zero-length array, so the call passes a null row).
void PrintRowDecl(Printer* p, const TupleDesc& desc) {
  if (desc.regs.empty()) return;
  p->Print("const int64_t t[] = {");
  for (size_t i = 0; i < desc.regs.size(); ++i) {
    p->Print(i > 0 ? ", " : "", Reg{desc.regs[i]});
  }
  p->Print("}; ");
}

/// The `row, n` arguments matching PrintRowDecl.
void PrintRowArgs(Printer* p, const TupleDesc& desc) {
  const auto n = static_cast<int64_t>(desc.regs.size());
  p->Print(n == 0 ? "(const int64_t*)0" : "t", ", ", Unsigned{n});
}

/// The statement for `insn`. Storage instructions call back through
/// CaracQuotesApi `q`; the rest is inline C++ on the locals.
void PrintStatement(Printer* p, const BytecodeProgram& program,
                    const Insn& insn) {
  const Label fail{insn.d};
  switch (insn.op) {
    case Insn::Op::kLoadImm:
      p->Print(Reg{insn.a}, " = ", Literal{insn.imm}, ";");
      return;
    case Insn::Op::kScanOpen:
      p->Print("q.scan_open(q.rt, ", Unsigned{insn.a}, ", ", Unsigned{insn.b},
               ", ", Unsigned{insn.c}, ");");
      return;
    case Insn::Op::kProbeOpenConst:
    case Insn::Op::kProbeOpenReg:
      p->Print("q.probe_open(q.rt, ", Unsigned{insn.a}, ", ",
               Unsigned{insn.b}, ", ", Unsigned{insn.c}, ", ",
               Unsigned{insn.d}, ", ");
      if (insn.op == Insn::Op::kProbeOpenConst) {
        p->Print(Literal{insn.imm}, ");");
      } else {
        p->Print(Reg{insn.e}, ");");
      }
      return;
    case Insn::Op::kRangeOpen:
      p->Print("q.range_open(q.rt, ", Unsigned{insn.a}, ", ",
               Unsigned{insn.b}, ", ", Unsigned{insn.c}, ", ",
               Unsigned{insn.d}, ", ", Unsigned{insn.g}, ", ", Reg{insn.e},
               ", ", Reg{insn.f}, ");");
      return;
    case Insn::Op::kNext:
      p->Print("if (!(c", int64_t{insn.a}, " = q.next(q.rt, ",
               Unsigned{insn.a}, "))) goto ", fail, ";");
      return;
    case Insn::Op::kCheckConst:
      p->Print("if (", Row{insn.a, insn.b}, " != ", Literal{insn.imm},
               ") goto ", fail, ";");
      return;
    case Insn::Op::kCheckReg:
      p->Print("if (", Row{insn.a, insn.b}, " != ", Reg{insn.e}, ") goto ",
               fail, ";");
      return;
    case Insn::Op::kBindCol:
      p->Print(Reg{insn.e}, " = ", Row{insn.a, insn.b}, ";");
      return;
    case Insn::Op::kCompare:
      p->Print("if (!(", Reg{insn.e}, " ",
               datalog::BuiltinName(static_cast<BuiltinOp>(insn.b)), " ",
               Reg{insn.f}, ")) goto ", fail, ";");
      return;
    case Insn::Op::kArith:
    case Insn::Op::kArithCheck: {
      const auto op = static_cast<BuiltinOp>(insn.b);
      // Division and modulo by zero are undefined: the row fails.
      if (op == BuiltinOp::kDiv || op == BuiltinOp::kMod) {
        p->Print("if (", Reg{insn.f}, " == 0) goto ", fail, "; ");
      }
      if (insn.op == Insn::Op::kArith) {
        p->Print(Reg{insn.g}, " = ", Reg{insn.e}, " ", datalog::BuiltinName(op),
                 " ", Reg{insn.f}, ";");
      } else {
        p->Print("if ((", Reg{insn.e}, " ", datalog::BuiltinName(op), " ",
                 Reg{insn.f}, ") != ", Reg{insn.g}, ") goto ", fail, ";");
      }
      return;
    }
    case Insn::Op::kNotContains: {
      const TupleDesc& desc = program.tuples[insn.a];
      p->Print("{ ");
      PrintRowDecl(p, desc);
      p->Print("if (q.contains(q.rt, ", Unsigned{desc.predicate}, ", ",
               Unsigned{static_cast<int64_t>(storage::RowWindow::kAll)},
               ", ");
      PrintRowArgs(p, desc);
      p->Print(")) goto ", fail, "; }");
      return;
    }
    case Insn::Op::kSpjBegin:
      p->Print("q.spj_begin(q.rt, ", Unsigned{insn.b}, ");");
      return;
    case Insn::Op::kEmit: {
      const TupleDesc& desc = program.tuples[insn.a];
      p->Print("{ int64_t* o = q.emit(q.rt);");
      for (size_t i = 0; i < desc.regs.size(); ++i) {
        p->Print(" o[", static_cast<int64_t>(i), "] = ", Reg{desc.regs[i]},
                 ";");
      }
      p->Print(" (void)o; }");
      return;
    }
    case Insn::Op::kSpjEnd:
      p->Print("q.spj_end(q.rt);");
      return;
    case Insn::Op::kJump:
      p->Print("goto ", fail, ";");
      return;
    case Insn::Op::kSwapClear:
      p->Print("q.swap_clear(q.rt, ", Unsigned{insn.a}, ");");
      return;
    case Insn::Op::kJumpIfDelta:
      p->Print("if (q.any_delta(q.rt, ", Unsigned{insn.a}, ")) goto ", fail,
               ";");
      return;
    case Insn::Op::kIterBump:
      p->Print("q.iter_bump(q.rt);");
      return;
    case Insn::Op::kCallNode:
      p->Print("q.call_node(q.rt, ", Unsigned{insn.a}, ");");
      return;
    case Insn::Op::kHalt:
      p->Print("return;");
      return;
  }
}

}  // namespace

std::string GenerateQuotesSource(const BytecodeProgram& program) {
  Printer p;
  p.Print("// Generated by the carac quotes backend. Do not edit.\n"
          "typedef __INT64_TYPE__ int64_t;\n"
          "typedef __UINT32_TYPE__ uint32_t;\n",
          kQuotesApiSource, "\nextern \"C\" void ", kQuotesEntrySymbol,
          "(const struct CaracQuotesApi* api) {\n"
          "  const struct CaracQuotesApi q = *api;\n");
  // Registers and iterator rows are locals: kLoadImm constants and
  // checks stay visible to the compiler's constant propagation.
  PrintLocals(&p, "int64_t", "r", program.num_regs);
  PrintLocals(&p, "const int64_t", "*c", program.num_iters);
  for (size_t pc = 0; pc < program.code.size(); ++pc) {
    p.Print(Label{static_cast<int64_t>(pc)}, ": ");
    PrintStatement(&p, program, program.code[pc]);
    p.Print("\n");
  }
  p.Print("}\n");
  return p.Take();
}

}  // namespace carac::backends
