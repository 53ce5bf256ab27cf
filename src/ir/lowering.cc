#include "ir/lowering.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <utility>

namespace carac::ir {

namespace {

/// Tracks node-id assignment during one lowering.
struct LoweringState {
  const datalog::Program* program;
  uint32_t next_id = 0;

  std::unique_ptr<IROp> NewOp(OpKind kind) {
    auto op = std::make_unique<IROp>(kind);
    op->node_id = next_id++;
    return op;
  }
};

/// Remaps one rule's program variables to dense locals.
class LocalMapper {
 public:
  LocalTerm Map(const datalog::Term& term) {
    if (term.is_const()) return LocalTerm::Const(term.constant);
    auto [it, inserted] = map_.emplace(term.var, next_);
    if (inserted) ++next_;
    return LocalTerm::Var(it->second);
  }

  LocalVar MapVar(datalog::VarId var) {
    auto [it, inserted] = map_.emplace(var, next_);
    if (inserted) ++next_;
    return it->second;
  }

  int32_t num_locals() const { return next_; }

 private:
  std::map<datalog::VarId, LocalVar> map_;
  LocalVar next_ = 0;
};

/// Variables an atom requires bound before it can execute.
void FloaterInputs(const AtomSpec& atom, std::set<LocalVar>* inputs) {
  if (atom.is_builtin()) {
    // Builtins take two inputs; a third term, if any, is the output.
    for (size_t i = 0; i < 2 && i < atom.terms.size(); ++i) {
      if (atom.terms[i].is_var) inputs->insert(atom.terms[i].var);
    }
    // A constant or pre-bound output term is a check, not a binder; a
    // variable output binds, so it is not an input.
  } else {
    // Negated atom: every variable must be bound.
    for (const LocalTerm& t : atom.terms) {
      if (t.is_var) inputs->insert(t.var);
    }
  }
}

void AtomBinds(const AtomSpec& atom, std::set<LocalVar>* bound) {
  if (atom.is_join_atom()) {
    for (const LocalTerm& t : atom.terms) {
      if (t.is_var) bound->insert(t.var);
    }
  } else if (atom.is_builtin() && datalog::BuiltinBindsOutput(atom.builtin) &&
             atom.terms[2].is_var) {
    bound->insert(atom.terms[2].var);
  }
}

}  // namespace

std::vector<AtomSpec> ScheduleAtoms(const std::vector<AtomSpec>& join_atoms,
                                    const std::vector<AtomSpec>& floaters) {
  std::vector<AtomSpec> out;
  out.reserve(join_atoms.size() + floaters.size());
  std::set<LocalVar> bound;
  std::vector<bool> placed(floaters.size(), false);

  auto try_place_floaters = [&]() {
    bool progress = true;
    while (progress) {
      progress = false;
      for (size_t f = 0; f < floaters.size(); ++f) {
        if (placed[f]) continue;
        std::set<LocalVar> inputs;
        FloaterInputs(floaters[f], &inputs);
        bool ready = true;
        for (LocalVar v : inputs) {
          if (bound.count(v) == 0) {
            ready = false;
            break;
          }
        }
        if (ready) {
          placed[f] = true;
          out.push_back(floaters[f]);
          AtomBinds(floaters[f], &bound);  // Arithmetic may bind outputs.
          progress = true;
        }
      }
    }
  };

  for (const AtomSpec& join : join_atoms) {
    try_place_floaters();
    out.push_back(join);
    AtomBinds(join, &bound);
  }
  try_place_floaters();

  // Rule validation guarantees a valid schedule exists.
  for (bool p : placed) CARAC_CHECK(p);
  return out;
}

namespace {

BoundSpec MakeBound(const LocalTerm& t, bool strict) {
  BoundSpec b;
  b.strict = strict;
  if (t.is_var) {
    b.kind = BoundSpec::Kind::kVar;
    b.var = t.var;
  } else {
    b.kind = BoundSpec::Kind::kConst;
    b.constant = t.constant;
  }
  return b;
}

/// True when `t` can serve as a range bound for an atom executed with
/// `bound_before` already bound: constants always, variables only when
/// their value exists before the probed atom runs.
bool BoundEligible(const LocalTerm& t, const std::set<LocalVar>& bound_before) {
  return !t.is_var || bound_before.count(t.var) > 0;
}

}  // namespace

void AnnotateRangeBounds(IROp* op) {
  if (op->kind != OpKind::kSpj && op->kind != OpKind::kAggregate) return;
  for (AtomSpec& atom : op->atoms) {
    atom.range_col = -1;
    atom.lower = BoundSpec{};
    atom.upper = BoundSpec{};
  }
  std::set<LocalVar> bound;
  for (AtomSpec& atom : op->atoms) {
    if (atom.is_join_atom()) {
      for (size_t col = 0; col < atom.terms.size() && !atom.has_range();
           ++col) {
        const LocalTerm& t = atom.terms[col];
        // Only a FRESH variable's binder column can become the range: a
        // pre-bound column is a check (and a point-probe candidate), and
        // a repeated in-atom variable's later column is a self-join check.
        if (!t.is_var || bound.count(t.var) > 0) continue;
        bool first_in_atom = true;
        for (size_t prev = 0; prev < col; ++prev) {
          if (atom.terms[prev].is_var && atom.terms[prev].var == t.var) {
            first_in_atom = false;
            break;
          }
        }
        if (!first_in_atom) continue;

        BoundSpec lower, upper;
        for (const AtomSpec& b : op->atoms) {
          if (!b.is_builtin() || b.terms.size() != 2) continue;
          const datalog::BuiltinOp bop = b.builtin;
          if (bop != datalog::BuiltinOp::kLt &&
              bop != datalog::BuiltinOp::kLe &&
              bop != datalog::BuiltinOp::kGt &&
              bop != datalog::BuiltinOp::kGe &&
              bop != datalog::BuiltinOp::kEq) {
            continue;
          }
          for (int side = 0; side < 2; ++side) {
            const LocalTerm& mine = b.terms[side];
            const LocalTerm& other = b.terms[1 - side];
            if (!mine.is_var || mine.var != t.var) continue;
            if (!BoundEligible(other, bound)) continue;
            const bool strict = bop == datalog::BuiltinOp::kLt ||
                                bop == datalog::BuiltinOp::kGt;
            // v OP other, with OP as written on `side` of the builtin:
            // side 0 keeps the operator's direction, side 1 mirrors it.
            const bool upper_bound =
                bop == datalog::BuiltinOp::kEq ||
                ((bop == datalog::BuiltinOp::kLt ||
                  bop == datalog::BuiltinOp::kLe) == (side == 0));
            const bool lower_bound =
                bop == datalog::BuiltinOp::kEq || !upper_bound;
            if (upper_bound && !upper.present()) {
              upper = MakeBound(other, strict);
            }
            if (lower_bound && !lower.present()) {
              lower = MakeBound(other, strict);
            }
          }
        }
        if (lower.present() || upper.present()) {
          atom.range_col = static_cast<int32_t>(col);
          atom.lower = lower;
          atom.upper = upper;
        }
      }
    }
    AtomBinds(atom, &bound);
  }
}

namespace {

/// Builds the SPJ/Aggregate node for `rule`. `delta_pos` selects which
/// join atom (index among the positive relational atoms) reads the delta;
/// -1 produces the naive variant reading Derived everywhere. Outside
/// `update_mode` only same-stratum atoms qualify (the in-loop semi-naive
/// split) and lowering order is preserved. In `update_mode` — the
/// update-epoch tree — ANY positive atom qualifies, EDB and lower-stratum
/// predicates included (an epoch may grow any of them). The delta atom
/// moves to the front so the delta drives the join, and the other join
/// atoms follow in connected order: each is the earliest remaining atom,
/// in rule order, that shares a variable with those bound before it, so
/// it runs as an index probe keyed by the delta row rather than a scan.
/// Only a body that is itself disconnected keeps a Cartesian step.
///
/// Every eligible join atom before the delta position (in rule order, so
/// the window is set before the update-mode reorder) is old-only: it reads
/// the Derived rows that predate the current delta. Variants run in
/// delta-position order, so a derivation with delta rows at several atoms
/// is emitted by the variant of the first one only. In-loop, only
/// same-stratum atoms qualify: a lower stratum without recursion keeps
/// its init-pass rows as its delta window, which are not new to this
/// stratum. In an update epoch every input's delta is its watermark tail.
std::unique_ptr<IROp> BuildSubquery(LoweringState* state,
                                    const datalog::Rule& rule,
                                    uint32_t rule_index, int32_t delta_pos,
                                    const std::vector<int32_t>& stratum_of,
                                    int32_t stratum,
                                    bool update_mode = false) {
  LocalMapper mapper;
  std::vector<AtomSpec> joins;
  std::vector<AtomSpec> floaters;

  int32_t join_idx = 0;
  for (const datalog::Atom& atom : rule.body) {
    AtomSpec spec;
    spec.builtin = atom.builtin;
    spec.predicate = atom.predicate;
    spec.negated = atom.negated;
    spec.terms.reserve(atom.terms.size());
    for (const datalog::Term& t : atom.terms) spec.terms.push_back(mapper.Map(t));
    if (spec.is_join_atom()) {
      const bool same_stratum =
          stratum_of[atom.predicate] == stratum && stratum >= 0;
      const bool delta_eligible = update_mode || same_stratum;
      if (delta_eligible && join_idx == delta_pos) {
        spec.window = storage::RowWindow::kDelta;
      } else if (delta_eligible && join_idx < delta_pos) {
        spec.window = storage::RowWindow::kOld;
      }
      joins.push_back(std::move(spec));
      ++join_idx;
    } else {
      floaters.push_back(std::move(spec));  // Negations read all rows.
    }
  }
  if (update_mode && delta_pos >= 0) {
    // Local variable ids are positional in the binding array, so reordering
    // the joins after mapping is sound. `joins` keeps the atoms not yet
    // placed, in rule order.
    std::vector<AtomSpec> ordered;
    ordered.reserve(joins.size());
    std::set<LocalVar> bound;
    auto take = [&](std::ptrdiff_t j) {
      AtomBinds(joins[j], &bound);
      ordered.push_back(std::move(joins[j]));
      joins.erase(joins.begin() + j);
    };
    auto shares_bound = [&](const AtomSpec& atom) {
      return std::any_of(atom.terms.begin(), atom.terms.end(),
                         [&](const LocalTerm& t) {
                           return t.is_var && bound.count(t.var) > 0;
                         });
    };
    take(delta_pos);
    while (!joins.empty()) {
      auto next = std::find_if(joins.begin(), joins.end(), shares_bound);
      take(next == joins.end() ? 0 : next - joins.begin());
    }
    joins = std::move(ordered);
  }

  const bool is_agg = rule.agg != datalog::AggFunc::kNone;
  auto op = state->NewOp(is_agg ? OpKind::kAggregate : OpKind::kSpj);
  op->target = rule.head.predicate;
  op->rule_index = rule_index;
  op->delta_pos = delta_pos;
  op->delta_pinned = update_mode && delta_pos >= 0;
  op->atoms = ScheduleAtoms(joins, floaters);
  op->head_terms.reserve(rule.head.terms.size());
  for (const datalog::Term& t : rule.head.terms) {
    op->head_terms.push_back(mapper.Map(t));
  }
  if (is_agg) {
    op->agg = rule.agg;
    op->agg_operand =
        rule.agg == datalog::AggFunc::kCount ? -1 : mapper.MapVar(rule.agg_operand);
  }
  op->num_locals = mapper.num_locals();
  return op;
}

/// Number of positive relational atoms in `rule`'s body.
int32_t PositiveJoinCount(const datalog::Rule& rule) {
  int32_t count = 0;
  for (const datalog::Atom& atom : rule.body) {
    if (atom.is_relational() && !atom.negated) ++count;
  }
  return count;
}

/// Indices (among the positive relational body atoms) whose predicates
/// belong to `stratum` — the candidate delta positions.
std::vector<int32_t> DeltaPositions(const datalog::Rule& rule,
                                    const std::vector<int32_t>& stratum_of,
                                    int32_t stratum) {
  std::vector<int32_t> positions;
  int32_t join_idx = 0;
  for (const datalog::Atom& atom : rule.body) {
    if (atom.is_relational() && !atom.negated) {
      if (stratum_of[atom.predicate] == stratum) positions.push_back(join_idx);
      ++join_idx;
    }
  }
  return positions;
}

/// Builds one stratum's update-epoch subtree:
///
///   SequenceOp
///     DoWhileOp [recursive predicates]
///       SequenceOp
///         per defined relation: UnionOp* of UnionOps holding one
///           BuildUpdateSubquery variant per positive body atom
///         SwapClearOp [stratum predicates + body inputs]
///
/// The caller seeds the delta windows (the Derived rows past each
/// watermark) before executing this; iteration 1 consumes the seeds and
/// the SwapClear — which covers the seeded input relations too — retires
/// them, leaving the loop a plain semi-naive fixpoint over the stratum's
/// own deltas. Aggregate rules are omitted: their delta variants would be
/// unsound (a new witness changes the group's value), so any epoch that
/// touches an aggregate input recomputes the stratum via the full tree
/// instead.
std::unique_ptr<IROp> BuildUpdateStratum(LoweringState* state,
                                         const std::vector<datalog::Rule>& rules,
                                         const datalog::Stratum& stratum,
                                         const std::vector<int32_t>& stratum_of,
                                         int32_t stratum_index,
                                         std::vector<datalog::PredicateId>
                                             recursive_predicates) {
  auto seq = state->NewOp(OpKind::kSequence);
  auto loop = state->NewOp(OpKind::kDoWhile);
  loop->relations = std::move(recursive_predicates);
  auto body = state->NewOp(OpKind::kSequence);

  for (datalog::PredicateId rel : stratum.predicates) {
    auto union_all = state->NewOp(OpKind::kUnionAll);
    union_all->relations = {rel};
    for (uint32_t r : stratum.rule_indices) {
      if (rules[r].head.predicate != rel) continue;
      if (rules[r].agg != datalog::AggFunc::kNone) continue;
      auto union_op = state->NewOp(OpKind::kUnion);
      union_op->target = rel;
      for (int32_t pos = 0; pos < PositiveJoinCount(rules[r]); ++pos) {
        union_op->children.push_back(
            BuildSubquery(state, rules[r], r, pos, stratum_of,
                          stratum_index, /*update_mode=*/true));
      }
      if (!union_op->children.empty()) {
        union_all->children.push_back(std::move(union_op));
      }
    }
    if (!union_all->children.empty()) {
      body->children.push_back(std::move(union_all));
    }
  }

  auto swap = state->NewOp(OpKind::kSwapClear);
  swap->relations = stratum.predicates;
  swap->relations.insert(swap->relations.end(), stratum.body_inputs.begin(),
                         stratum.body_inputs.end());
  std::sort(swap->relations.begin(), swap->relations.end());
  swap->relations.erase(
      std::unique(swap->relations.begin(), swap->relations.end()),
      swap->relations.end());
  body->children.push_back(std::move(swap));

  loop->children.push_back(std::move(body));
  seq->children.push_back(std::move(loop));
  return seq;
}

void DeclareRuleIndexes(const datalog::Program& program,
                        storage::DatabaseSet* db) {
  for (const datalog::Rule& rule : program.rules()) {
    // Count variable occurrences across the body's relational atoms (plus
    // builtin inputs, which also benefit from index probes on their
    // binder); shared variables are join keys.
    std::map<datalog::VarId, int> occurrences;
    for (const datalog::Atom& atom : rule.body) {
      for (const datalog::Term& t : atom.terms) {
        if (t.is_var()) ++occurrences[t.var];
      }
    }
    for (const datalog::Atom& atom : rule.body) {
      if (!atom.is_relational()) continue;
      for (size_t col = 0; col < atom.terms.size(); ++col) {
        const datalog::Term& t = atom.terms[col];
        if (t.is_const() || occurrences[t.var] > 1) {
          db->DeclareIndex(atom.predicate, col);
        }
      }
    }
  }
}

}  // namespace

util::Status Lower(datalog::Program* program,
                   const datalog::Stratification& strata, bool declare_indexes,
                   IRProgram* out, bool range_pushdown) {
  LoweringState state;
  state.program = program;

  if (declare_indexes) {
    DeclareRuleIndexes(*program, &program->db());
  }

  auto root = state.NewOp(OpKind::kProgram);
  auto update_root = state.NewOp(OpKind::kProgram);
  const std::vector<datalog::Rule>& rules = program->rules();
  out->strata.clear();

  for (size_t s = 0; s < strata.strata.size(); ++s) {
    const datalog::Stratum& stratum = strata.strata[s];
    auto seq = state.NewOp(OpKind::kSequence);

    // ---- Naive initial pass: every rule, all atoms read Derived. ----
    for (datalog::PredicateId rel : stratum.predicates) {
      auto union_all = state.NewOp(OpKind::kUnionAll);
      union_all->relations = {rel};
      for (size_t i = 0; i < stratum.rule_indices.size(); ++i) {
        const uint32_t r = stratum.rule_indices[i];
        if (rules[r].head.predicate != rel) continue;
        auto union_op = state.NewOp(OpKind::kUnion);
        union_op->target = rel;
        union_op->children.push_back(BuildSubquery(
            &state, rules[r], r, /*delta_pos=*/-1, strata.stratum_of,
            static_cast<int32_t>(s)));
        union_all->children.push_back(std::move(union_op));
      }
      if (!union_all->children.empty()) {
        seq->children.push_back(std::move(union_all));
      }
    }
    auto init_swap = state.NewOp(OpKind::kSwapClear);
    init_swap->relations = stratum.predicates;
    seq->children.push_back(std::move(init_swap));

    // ---- Semi-naive fixpoint loop over the recursive rules. ----
    bool any_recursive = false;
    for (bool rec : stratum.rule_is_recursive) any_recursive |= rec;
    if (any_recursive) {
      auto loop = state.NewOp(OpKind::kDoWhile);
      loop->relations = stratum.predicates;
      auto body = state.NewOp(OpKind::kSequence);

      for (datalog::PredicateId rel : stratum.predicates) {
        auto union_all = state.NewOp(OpKind::kUnionAll);
        union_all->relations = {rel};
        for (size_t i = 0; i < stratum.rule_indices.size(); ++i) {
          if (!stratum.rule_is_recursive[i]) continue;
          const uint32_t r = stratum.rule_indices[i];
          if (rules[r].head.predicate != rel) continue;
          auto union_op = state.NewOp(OpKind::kUnion);
          union_op->target = rel;
          for (int32_t pos : DeltaPositions(rules[r], strata.stratum_of,
                                            static_cast<int32_t>(s))) {
            union_op->children.push_back(
                BuildSubquery(&state, rules[r], r, pos, strata.stratum_of,
                              static_cast<int32_t>(s)));
          }
          union_all->children.push_back(std::move(union_op));
        }
        if (!union_all->children.empty()) {
          body->children.push_back(std::move(union_all));
        }
      }
      auto loop_swap = state.NewOp(OpKind::kSwapClear);
      loop_swap->relations = stratum.predicates;
      body->children.push_back(std::move(loop_swap));
      loop->children.push_back(std::move(body));
      seq->children.push_back(std::move(loop));
    }

    root->children.push_back(std::move(seq));

    // ---- The stratum's incremental twin + evaluation plan. ----
    StratumPlan plan;
    plan.predicates = stratum.predicates;
    plan.body_inputs = stratum.body_inputs;
    plan.recompute_triggers = stratum.recompute_triggers;
    for (datalog::PredicateId input : stratum.body_inputs) {
      if (strata.stratum_of[input] == static_cast<int32_t>(s)) {
        plan.recursive_predicates.push_back(input);
      }
    }
    update_root->children.push_back(BuildUpdateStratum(
        &state, rules, stratum, strata.stratum_of, static_cast<int32_t>(s),
        plan.recursive_predicates));
    out->strata.push_back(std::move(plan));
  }

  out->root = std::move(root);
  out->update_root = std::move(update_root);
  for (size_t s = 0; s < out->strata.size(); ++s) {
    out->strata[s].full = out->root->children[s].get();
    out->strata[s].update = out->update_root->children[s].get();
  }
  out->num_nodes = state.next_id;
  out->RebuildIndex();

  if (range_pushdown) {
    std::function<void(IROp*)> annotate = [&](IROp* op) {
      if (op->kind == OpKind::kSpj || op->kind == OpKind::kAggregate) {
        op->range_pushdown = true;
        AnnotateRangeBounds(op);
      }
      for (auto& child : op->children) annotate(child.get());
    };
    annotate(out->root.get());
    annotate(out->update_root.get());
  }
  return util::Status::Ok();
}

util::Status LowerProgram(datalog::Program* program, bool declare_indexes,
                          IRProgram* out, bool range_pushdown) {
  datalog::Stratification strata;
  CARAC_RETURN_IF_ERROR(datalog::Stratify(*program, &strata));
  return Lower(program, strata, declare_indexes, out, range_pushdown);
}

}  // namespace carac::ir
