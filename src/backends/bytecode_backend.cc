#include "backends/bytecode_backend.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "ir/access_path.h"
#include "util/status.h"

namespace carac::backends {

namespace {

using datalog::BuiltinBindsOutput;
using ir::AtomSpec;
using ir::IROp;
using ir::LocalTerm;
using ir::OpKind;

constexpr int32_t kExitSentinel = -1;

class Compiler {
 public:
  Compiler(const optimizer::StatsSnapshot& stats, CompileMode mode)
      : stats_(stats), mode_(mode) {}

  BytecodeProgram Compile(const IROp& op) {
    CompileNode(op, /*top_level=*/true);
    Emit({.op = Insn::Op::kHalt});
    prog_.num_regs = max_reg_;
    prog_.num_iters = max_iter_;
    return std::move(prog_);
  }

 private:
  size_t Emit(Insn insn) {
    prog_.code.push_back(insn);
    return prog_.code.size() - 1;
  }

  int32_t RelationSet(const std::vector<datalog::PredicateId>& rels) {
    prog_.relation_sets.push_back(rels);
    return static_cast<int32_t>(prog_.relation_sets.size() - 1);
  }

  void CompileNode(const IROp& op, bool top_level) {
    switch (op.kind) {
      case OpKind::kProgram:
      case OpKind::kSequence:
      case OpKind::kUnionAll:
      case OpKind::kUnion:
        if (!top_level && mode_ == CompileMode::kSnippet) {
          CallNode(op);
          return;
        }
        for (const auto& child : op.children) {
          CompileChild(*child, top_level);
        }
        return;
      case OpKind::kDoWhile: {
        const size_t loop_start = prog_.code.size();
        Emit({.op = Insn::Op::kIterBump});
        for (const auto& child : op.children[0]->children) {
          CompileChild(*child, /*top_level=*/false);
        }
        Insn jump{.op = Insn::Op::kJumpIfDelta};
        jump.a = RelationSet(op.relations);
        jump.d = static_cast<int32_t>(loop_start);
        Emit(jump);
        return;
      }
      case OpKind::kSwapClear: {
        Insn insn{.op = Insn::Op::kSwapClear};
        insn.a = RelationSet(op.relations);
        Emit(insn);
        return;
      }
      case OpKind::kSpj:
        CompileSpj(op);
        return;
      case OpKind::kAggregate:
        CallNode(op);  // Aggregation bails out to the interpreter.
        return;
    }
  }

  /// In snippet mode only the top node's own control structure is
  /// compiled; every child defers to the interpreter.
  void CompileChild(const IROp& child, bool /*top_level*/) {
    if (mode_ == CompileMode::kSnippet) {
      CallNode(child);
    } else {
      CompileNode(child, /*top_level=*/false);
    }
  }

  void CallNode(const IROp& op) {
    prog_.call_nodes.push_back(&op);
    Insn insn{.op = Insn::Op::kCallNode};
    insn.a = static_cast<int32_t>(prog_.call_nodes.size() - 1);
    Emit(insn);
  }

  // ---- SPJ compilation: static planning over the snapshot. ----

  struct SpjState {
    std::vector<bool> bound;
    int32_t next_temp;
    int32_t next_iter = 0;
    // Fail target for row-level failures: kExitSentinel means "end of this
    // SPJ" (patched afterwards); otherwise an instruction address (the
    // innermost enclosing kNext).
    int32_t fail = kExitSentinel;
    std::vector<size_t> exit_patches;
  };

  int32_t ConstReg(SpjState* s, int64_t value) {
    const int32_t reg = s->next_temp++;
    Insn insn{.op = Insn::Op::kLoadImm};
    insn.a = reg;
    insn.imm = value;
    Emit(insn);
    return reg;
  }

  /// Register holding a term's value; for constants a temp is loaded.
  int32_t TermReg(SpjState* s, const LocalTerm& t) {
    if (t.is_var) return t.var;
    return ConstReg(s, t.constant);
  }

  /// Register holding one side of a range bound. An absent side widens
  /// to `missing` (the Value domain edge: match-everything). Bound-var
  /// sides read the variable's register directly — the annotation pass
  /// guarantees it is bound before the atom executes.
  int32_t BoundReg(SpjState* s, const ir::BoundSpec& b, int64_t missing) {
    if (!b.present()) return ConstReg(s, missing);
    if (b.kind == ir::BoundSpec::Kind::kVar) return b.var;
    return ConstReg(s, b.constant);
  }

  void FailJump(SpjState* s, size_t insn_index) {
    if (prog_.code[insn_index].d == kExitSentinel) {
      s->exit_patches.push_back(insn_index);
    }
  }

  void CompileSpj(const IROp& op) {
    SpjState s;
    s.bound.assign(op.num_locals, false);
    s.next_temp = op.num_locals;
    Insn begin{.op = Insn::Op::kSpjBegin};
    begin.b = static_cast<int32_t>(op.target);
    Emit(begin);

    for (const AtomSpec& atom : op.atoms) {
      if (atom.is_builtin()) {
        CompileBuiltin(&s, atom);
      } else if (atom.negated) {
        CompileNegation(&s, atom);
      } else {
        CompileJoinAtom(&s, atom);
      }
    }

    // Head emission.
    TupleDesc desc;
    desc.predicate = op.target;
    for (const LocalTerm& t : op.head_terms) {
      desc.regs.push_back(TermReg(&s, t));
    }
    prog_.tuples.push_back(std::move(desc));
    Insn emit{.op = Insn::Op::kEmit};
    emit.a = static_cast<int32_t>(prog_.tuples.size() - 1);
    Emit(emit);

    // Resume the innermost loop (or fall out if there is none).
    Insn jump{.op = Insn::Op::kJump};
    jump.d = s.fail;
    FailJump(&s, Emit(jump));

    // Patch every exit-sentinel jump to the kSpjEnd that flushes the
    // emit window, so no path leaves the subquery with tuples buffered.
    const int32_t exit_pc =
        static_cast<int32_t>(Emit({.op = Insn::Op::kSpjEnd}));
    for (size_t idx : s.exit_patches) prog_.code[idx].d = exit_pc;

    max_reg_ = std::max(max_reg_, s.next_temp);
    max_iter_ = std::max(max_iter_, s.next_iter);
  }

  void CompileBuiltin(SpjState* s, const AtomSpec& atom) {
    const int32_t lhs = TermReg(s, atom.terms[0]);
    const int32_t rhs = TermReg(s, atom.terms[1]);
    if (!BuiltinBindsOutput(atom.builtin)) {
      Insn insn{.op = Insn::Op::kCompare};
      insn.b = static_cast<int32_t>(atom.builtin);
      insn.e = lhs;
      insn.f = rhs;
      insn.d = s->fail;
      FailJump(s, Emit(insn));
      return;
    }
    const LocalTerm& out = atom.terms[2];
    const bool binds = out.is_var && !s->bound[out.var];
    Insn insn{.op = binds ? Insn::Op::kArith : Insn::Op::kArithCheck};
    insn.b = static_cast<int32_t>(atom.builtin);
    insn.e = lhs;
    insn.f = rhs;
    insn.g = binds ? out.var : TermReg(s, out);
    insn.d = s->fail;
    FailJump(s, Emit(insn));
    if (binds) s->bound[out.var] = true;
  }

  void CompileNegation(SpjState* s, const AtomSpec& atom) {
    TupleDesc desc;
    desc.predicate = atom.predicate;
    for (const LocalTerm& t : atom.terms) desc.regs.push_back(TermReg(s, t));
    prog_.tuples.push_back(std::move(desc));
    Insn insn{.op = Insn::Op::kNotContains};
    insn.a = static_cast<int32_t>(prog_.tuples.size() - 1);
    insn.d = s->fail;
    FailJump(s, Emit(insn));
  }

  void CompileJoinAtom(SpjState* s, const AtomSpec& atom) {
    const int32_t iter = s->next_iter++;

    // Access path: the shared first-probe-column rule, decided statically
    // (the speed advantage over the interpreter's per-execution planning).
    const int32_t probe_col = ir::FirstProbeColumn(
        atom, [&](ir::LocalVar v) { return s->bound[v]; },
        [&](size_t col) { return stats_.HasIndex(atom.predicate, col); });

    if (probe_col < 0 && atom.has_range() &&
        stats_.HasIndex(atom.predicate,
                        static_cast<size_t>(atom.range_col))) {
      // Range pushdown: lower the annotated bounds into registers and
      // let the VM decide probe-vs-scan at open time (kind, key extremes
      // and profitability are runtime properties). A missing side widens
      // to the Value domain edge; strictness travels as flags so the VM
      // closes the interval exactly like the tree evaluators.
      Insn open{.op = Insn::Op::kRangeOpen};
      open.a = iter;
      open.b = static_cast<int32_t>(atom.predicate);
      open.c = WindowOperand(atom);
      open.d = atom.range_col;
      open.e = BoundReg(s, atom.lower,
                        std::numeric_limits<int64_t>::min());
      open.f = BoundReg(s, atom.upper,
                        std::numeric_limits<int64_t>::max());
      open.g = (atom.lower.present() && atom.lower.strict ? 1 : 0) |
               (atom.upper.present() && atom.upper.strict ? 2 : 0);
      Emit(open);
    } else if (probe_col < 0) {
      Insn open{.op = Insn::Op::kScanOpen};
      open.a = iter;
      open.b = static_cast<int32_t>(atom.predicate);
      open.c = WindowOperand(atom);
      Emit(open);
    } else {
      const LocalTerm& key = atom.terms[probe_col];
      Insn open{.op = key.is_var ? Insn::Op::kProbeOpenReg
                                 : Insn::Op::kProbeOpenConst};
      open.a = iter;
      open.b = static_cast<int32_t>(atom.predicate);
      open.c = WindowOperand(atom);
      open.d = probe_col;
      if (key.is_var) {
        open.e = key.var;
      } else {
        open.imm = key.constant;
      }
      Emit(open);
    }

    Insn next{.op = Insn::Op::kNext};
    next.a = iter;
    next.d = s->fail;  // Exhausted: resume the enclosing loop (or exit).
    const size_t next_addr = Emit(next);
    FailJump(s, next_addr);
    s->fail = static_cast<int32_t>(next_addr);

    // Column checks and binds. The probed column is re-checked so the
    // unindexed degrade-to-scan path in the VM stays correct.
    for (size_t col = 0; col < atom.terms.size(); ++col) {
      const LocalTerm& t = atom.terms[col];
      if (!t.is_var) {
        Insn check{.op = Insn::Op::kCheckConst};
        check.a = iter;
        check.b = static_cast<int32_t>(col);
        check.imm = t.constant;
        check.d = s->fail;
        Emit(check);
      } else if (s->bound[t.var]) {
        Insn check{.op = Insn::Op::kCheckReg};
        check.a = iter;
        check.b = static_cast<int32_t>(col);
        check.e = t.var;
        check.d = s->fail;
        Emit(check);
      } else {
        Insn bind{.op = Insn::Op::kBindCol};
        bind.a = iter;
        bind.b = static_cast<int32_t>(col);
        bind.e = t.var;
        Emit(bind);
        s->bound[t.var] = true;
      }
    }
  }

  const optimizer::StatsSnapshot& stats_;
  CompileMode mode_;
  BytecodeProgram prog_;
  int32_t max_reg_ = 0;
  int32_t max_iter_ = 0;
};

class BytecodeUnit : public CompiledUnit {
 public:
  BytecodeUnit(std::unique_ptr<IROp> tree, BytecodeProgram program)
      : tree_(std::move(tree)), program_(std::move(program)) {}

  void Run(ir::ExecContext& ctx, ir::Interpreter& interp,
           ir::IROp& /*original*/) override {
    RunBytecode(program_, ctx, interp);
  }

  std::string Describe() const override {
    return "bytecode[" + std::to_string(program_.code.size()) + " insns]";
  }

 private:
  std::unique_ptr<IROp> tree_;  // Owns the nodes call_nodes points into.
  BytecodeProgram program_;
};

}  // namespace

BytecodeProgram CompileToBytecode(const ir::IROp& op,
                                  const optimizer::StatsSnapshot& stats,
                                  CompileMode mode) {
  Compiler compiler(stats, mode);
  return compiler.Compile(op);
}

util::Status BytecodeBackend::CompileOrdered(
    CompileRequest request, std::unique_ptr<CompiledUnit>* out) {
  BytecodeProgram program =
      CompileToBytecode(*request.subtree, request.stats, request.mode);
  *out = std::make_unique<BytecodeUnit>(std::move(request.subtree),
                                        std::move(program));
  return util::Status::Ok();
}

}  // namespace carac::backends
