#include "ir/irop.h"

#include <functional>

namespace carac::ir {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kProgram:
      return "ProgramOp";
    case OpKind::kSequence:
      return "SequenceOp";
    case OpKind::kDoWhile:
      return "DoWhileOp";
    case OpKind::kSwapClear:
      return "SwapClearOp";
    case OpKind::kUnionAll:
      return "UnionOp*";
    case OpKind::kUnion:
      return "UnionOp";
    case OpKind::kSpj:
      return "SPJOp";
    case OpKind::kAggregate:
      return "AggregateOp";
  }
  return "?";
}

std::unique_ptr<IROp> IROp::Clone() const {
  auto copy = std::make_unique<IROp>(kind);
  copy->node_id = node_id;
  copy->relations = relations;
  copy->target = target;
  copy->head_terms = head_terms;
  copy->atoms = atoms;
  copy->num_locals = num_locals;
  copy->rule_index = rule_index;
  copy->delta_pos = delta_pos;
  copy->delta_pinned = delta_pinned;
  copy->range_pushdown = range_pushdown;
  copy->agg = agg;
  copy->agg_operand = agg_operand;
  copy->children.reserve(children.size());
  for (const auto& child : children) copy->children.push_back(child->Clone());
  return copy;
}

void IRProgram::RebuildIndex() {
  by_id.assign(num_nodes, nullptr);
  std::function<void(IROp*)> visit = [&](IROp* op) {
    if (op->node_id >= by_id.size()) by_id.resize(op->node_id + 1, nullptr);
    by_id[op->node_id] = op;
    for (auto& child : op->children) visit(child.get());
  };
  if (root) visit(root.get());
  if (update_root) visit(update_root.get());
}

namespace {

std::string TermStr(const LocalTerm& t) {
  return t.is_var ? "l" + std::to_string(t.var) : std::to_string(t.constant);
}

std::string BoundStr(const BoundSpec& b) {
  return b.kind == BoundSpec::Kind::kVar ? "l" + std::to_string(b.var)
                                         : std::to_string(b.constant);
}

void Render(const IROp& op, const datalog::Program& program, int indent,
            std::string* out) {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  out->append(OpKindName(op.kind));
  out->append("#" + std::to_string(op.node_id));
  if (!op.relations.empty()) {
    out->append(" [");
    for (size_t i = 0; i < op.relations.size(); ++i) {
      if (i > 0) out->append(", ");
      out->append(program.PredicateName(op.relations[i]));
    }
    out->append("]");
  }
  if (op.kind == OpKind::kSpj || op.kind == OpKind::kAggregate) {
    out->append(" -> " + program.PredicateName(op.target) + "(");
    for (size_t i = 0; i < op.head_terms.size(); ++i) {
      if (i > 0) out->append(", ");
      out->append(TermStr(op.head_terms[i]));
    }
    out->append(") :- ");
    for (size_t i = 0; i < op.atoms.size(); ++i) {
      if (i > 0) out->append(", ");
      const AtomSpec& atom = op.atoms[i];
      if (atom.negated) out->append("!");
      if (atom.is_builtin()) {
        out->append(datalog::BuiltinName(atom.builtin));
      } else {
        out->append(program.PredicateName(atom.predicate));
        out->append(atom.window == storage::RowWindow::kDelta ? "@d"
                    : atom.window == storage::RowWindow::kOld ? "@o"
                                                              : "@*");
      }
      out->append("(");
      for (size_t j = 0; j < atom.terms.size(); ++j) {
        if (j > 0) out->append(",");
        out->append(TermStr(atom.terms[j]));
      }
      out->append(")");
      if (atom.has_range()) {
        // Only annotated atoms render bounds, so programs without
        // pushdown print exactly as before.
        out->append("{col" + std::to_string(atom.range_col));
        out->append(atom.lower.present()
                        ? (atom.lower.strict ? ">" : ">=") +
                              BoundStr(atom.lower)
                        : std::string());
        out->append(atom.upper.present()
                        ? (atom.upper.strict ? "<" : "<=") +
                              BoundStr(atom.upper)
                        : std::string());
        out->append("}");
      }
    }
  }
  out->append("\n");
  for (const auto& child : op.children) {
    Render(*child, program, indent + 1, out);
  }
}

}  // namespace

std::string OpToString(const IROp& op, const datalog::Program& program,
                       int indent) {
  std::string out;
  Render(op, program, indent, &out);
  return out;
}

std::string IRProgram::ToString(const datalog::Program& program) const {
  return root ? OpToString(*root, program) : "<empty>";
}

}  // namespace carac::ir
