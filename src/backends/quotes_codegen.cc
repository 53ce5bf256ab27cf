#include "backends/quotes_codegen.h"

#include <utility>

#include "ir/access_path.h"
#include "util/status.h"

namespace carac::backends {

namespace {

using datalog::BuiltinBindsOutput;
using datalog::BuiltinOp;
using ir::AtomSpec;
using ir::IROp;
using ir::LocalTerm;
using ir::OpKind;

const char kPrelude[] = R"(// Generated by carac++ quotes backend. Do not edit.
typedef long long i64;
typedef unsigned u32;
extern "C" {
struct CaracQuotesApi {
  void* rt;
  u32 (*scan_open)(void* rt, u32 pred, u32 db);
  u32 (*probe_open)(void* rt, u32 pred, u32 db, u32 col, i64 value);
  const i64* (*iter_next)(void* rt, u32 iter);
  void (*iter_close)(void* rt, u32 iter);
  int (*contains)(void* rt, u32 pred, u32 db, const i64* row, u32 n);
  void (*insert)(void* rt, u32 pred, const i64* row, u32 n);
  void (*swap_clear)(void* rt, u32 set_id);
  int (*any_delta)(void* rt, u32 set_id);
  void (*iter_bump)(void* rt);
  void (*call_node)(void* rt, u32 node_index);
};
void carac_entry(const struct CaracQuotesApi* api);
}
)";

class Generator {
 public:
  Generator(const optimizer::StatsSnapshot& stats, CompileMode mode,
            QuotesPools* pools)
      : stats_(stats), mode_(mode), pools_(pools) {}

  std::string Generate(const IROp& op) {
    out_ = kPrelude;
    out_ += "\nextern \"C\" void carac_entry(const struct CaracQuotesApi* "
            "api) {\n";
    indent_ = 1;
    GenNode(op, /*top_level=*/true);
    out_ += "}\n";
    return std::move(out_);
  }

 private:
  void Line(const std::string& text) {
    out_.append(static_cast<size_t>(indent_) * 2, ' ');
    out_ += text;
    out_ += "\n";
  }

  uint32_t RelationSet(const std::vector<datalog::PredicateId>& rels) {
    pools_->relation_sets.push_back(rels);
    return static_cast<uint32_t>(pools_->relation_sets.size() - 1);
  }

  void CallNode(const IROp& op) {
    pools_->call_nodes.push_back(&op);
    Line("api->call_node(api->rt, " +
         std::to_string(pools_->call_nodes.size() - 1) + "u);");
  }

  void GenNode(const IROp& op, bool top_level) {
    switch (op.kind) {
      case OpKind::kProgram:
      case OpKind::kSequence:
      case OpKind::kUnionAll:
      case OpKind::kUnion:
        if (!top_level && mode_ == CompileMode::kSnippet) {
          CallNode(op);
          return;
        }
        for (const auto& child : op.children) GenChild(*child);
        return;
      case OpKind::kDoWhile: {
        const uint32_t set = RelationSet(op.relations);
        Line("do {");
        ++indent_;
        Line("api->iter_bump(api->rt);");
        for (const auto& child : op.children[0]->children) GenChild(*child);
        --indent_;
        Line("} while (api->any_delta(api->rt, " + std::to_string(set) +
             "u));");
        return;
      }
      case OpKind::kSwapClear:
        Line("api->swap_clear(api->rt, " +
             std::to_string(RelationSet(op.relations)) + "u);");
        return;
      case OpKind::kSpj:
        GenSpj(op);
        return;
      case OpKind::kAggregate:
        CallNode(op);
        return;
    }
  }

  void GenChild(const IROp& child) {
    if (mode_ == CompileMode::kSnippet) {
      CallNode(child);
    } else {
      GenNode(child, /*top_level=*/false);
    }
  }

  // ---- SPJ: recursive nested-loop generation. ----

  std::string Term(const LocalTerm& t) const {
    return t.is_var ? "l" + std::to_string(t.var)
                    : std::to_string(t.constant) + "LL";
  }

  void GenSpj(const IROp& op) {
    Line("{  // SPJ rule " + std::to_string(op.rule_index) + " delta " +
         std::to_string(op.delta_pos));
    ++indent_;
    for (int32_t v = 0; v < op.num_locals; ++v) {
      Line("i64 l" + std::to_string(v) + " = 0; (void)l" + std::to_string(v) +
           ";");
    }
    bound_.assign(op.num_locals, false);
    GenAtoms(op, 0);
    --indent_;
    Line("}");
  }

  void GenAtoms(const IROp& op, size_t i) {
    if (i == op.atoms.size()) {
      GenEmit(op);
      return;
    }
    const AtomSpec& atom = op.atoms[i];
    if (atom.is_builtin()) {
      GenBuiltin(op, atom, i);
    } else if (atom.negated) {
      GenNegation(op, atom, i);
    } else {
      GenJoin(op, atom, i);
    }
  }

  void GenBuiltin(const IROp& op, const AtomSpec& atom, size_t i) {
    const std::string lhs = Term(atom.terms[0]);
    const std::string rhs = Term(atom.terms[1]);
    if (!BuiltinBindsOutput(atom.builtin)) {
      Line("if (" + lhs + " " + datalog::BuiltinName(atom.builtin) + " " +
           rhs + ") {");
      ++indent_;
      GenAtoms(op, i + 1);
      --indent_;
      Line("}");
      return;
    }
    const bool guarded =
        atom.builtin == BuiltinOp::kDiv || atom.builtin == BuiltinOp::kMod;
    if (guarded) {
      Line("if (" + rhs + " != 0) {");
      ++indent_;
    }
    const std::string expr =
        lhs + " " + datalog::BuiltinName(atom.builtin) + " " + rhs;
    const LocalTerm& out = atom.terms[2];
    if (out.is_var && !bound_[out.var]) {
      Line(Term(out) + " = " + expr + ";");
      bound_[out.var] = true;
      GenAtoms(op, i + 1);
      bound_[out.var] = false;
    } else {
      Line("if (" + Term(out) + " == (" + expr + ")) {");
      ++indent_;
      GenAtoms(op, i + 1);
      --indent_;
      Line("}");
    }
    if (guarded) {
      --indent_;
      Line("}");
    }
  }

  void GenNegation(const IROp& op, const AtomSpec& atom, size_t i) {
    std::string row = "{";
    for (size_t t = 0; t < atom.terms.size(); ++t) {
      if (t > 0) row += ", ";
      row += Term(atom.terms[t]);
    }
    row += "}";
    Line("{");
    ++indent_;
    Line("i64 nrow" + std::to_string(i) + "[] = " + row + ";");
    Line("if (!api->contains(api->rt, " + std::to_string(atom.predicate) +
         "u, " + std::to_string(static_cast<int>(atom.source)) + "u, nrow" +
         std::to_string(i) + ", " + std::to_string(atom.terms.size()) +
         "u)) {");
    ++indent_;
    GenAtoms(op, i + 1);
    --indent_;
    Line("}");
    --indent_;
    Line("}");
  }

  void GenJoin(const IROp& op, const AtomSpec& atom, size_t i) {
    const std::string it = "it" + std::to_string(i);
    const std::string row = "r" + std::to_string(i);

    const int32_t probe_col = ir::FirstProbeColumn(
        atom, [&](ir::LocalVar v) { return bound_[v]; },
        [&](size_t col) { return stats_.HasIndex(atom.predicate, col); });

    const std::string pred = std::to_string(atom.predicate) + "u";
    const std::string db = std::to_string(static_cast<int>(atom.source)) + "u";
    if (probe_col < 0) {
      Line("u32 " + it + " = api->scan_open(api->rt, " + pred + ", " + db +
           ");");
    } else {
      Line("u32 " + it + " = api->probe_open(api->rt, " + pred + ", " + db +
           ", " + std::to_string(probe_col) + "u, " +
           Term(atom.terms[probe_col]) + ");");
    }
    Line("while (const i64* " + row + " = api->iter_next(api->rt, " + it +
         ")) {");
    ++indent_;

    // Checks and binds, interleaved per column so that a repeated fresh
    // variable (e.g. R(x, x)) binds at its first column and filters at the
    // second. The probed column is re-checked to keep the unindexed
    // degrade-to-scan path correct.
    std::vector<ir::LocalVar> bound_here;
    for (size_t col = 0; col < atom.terms.size(); ++col) {
      const LocalTerm& t = atom.terms[col];
      const std::string cell = row + "[" + std::to_string(col) + "]";
      if (!t.is_var || bound_[t.var]) {
        Line("if (" + cell + " != " + Term(t) + ") continue;");
      } else {
        Line(Term(t) + " = " + cell + ";");
        bound_[t.var] = true;
        bound_here.push_back(t.var);
      }
    }

    GenAtoms(op, i + 1);

    for (ir::LocalVar v : bound_here) bound_[v] = false;
    --indent_;
    Line("}");
    Line("api->iter_close(api->rt, " + it + ");");
  }

  void GenEmit(const IROp& op) {
    std::string row = "{";
    for (size_t t = 0; t < op.head_terms.size(); ++t) {
      if (t > 0) row += ", ";
      row += Term(op.head_terms[t]);
    }
    row += "}";
    Line("{");
    ++indent_;
    if (op.head_terms.empty()) {
      Line("api->insert(api->rt, " + std::to_string(op.target) +
           "u, (const i64*)0, 0u);");
    } else {
      Line("i64 hrow[] = " + row + ";");
      Line("api->insert(api->rt, " + std::to_string(op.target) + "u, hrow, " +
           std::to_string(op.head_terms.size()) + "u);");
    }
    --indent_;
    Line("}");
  }

  const optimizer::StatsSnapshot& stats_;
  CompileMode mode_;
  QuotesPools* pools_;
  std::string out_;
  int indent_ = 0;
  std::vector<bool> bound_;
};

}  // namespace

std::string GenerateQuotesSource(const ir::IROp& op,
                                 const optimizer::StatsSnapshot& stats,
                                 CompileMode mode, QuotesPools* pools) {
  Generator gen(stats, mode, pools);
  return gen.Generate(op);
}

}  // namespace carac::backends
