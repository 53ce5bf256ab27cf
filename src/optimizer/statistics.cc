#include "optimizer/statistics.h"

namespace carac::optimizer {

AccessPathProfile ProfileAccessPaths(const datalog::Program& program) {
  AccessPathProfile profile;
  for (const datalog::Rule& rule : program.rules()) {
    // Occurrence counts mirror lowering's DeclareRuleIndexes trigger so
    // the profile covers exactly the columns that will get indexes.
    std::map<datalog::VarId, int> occurrences;
    // Variables with range / point evidence from builtins. An ordering
    // comparison (kLt..kGe) is range evidence — it lowers to a ProbeRange
    // bound (ir::AnnotateRangeBounds); kEq pins a single key, so it is
    // point evidence; kNe constrains nothing an index can serve.
    std::map<datalog::VarId, bool> compared;
    std::map<datalog::VarId, bool> eq_compared;
    std::map<datalog::VarId, bool> arith_output;
    // Occurrences among relational atoms only: ≥2 means join key.
    std::map<datalog::VarId, int> relational_occurrences;
    for (const datalog::Atom& atom : rule.body) {
      for (size_t i = 0; i < atom.terms.size(); ++i) {
        const datalog::Term& t = atom.terms[i];
        if (!t.is_var()) continue;
        ++occurrences[t.var];
        if (atom.is_relational()) {
          ++relational_occurrences[t.var];
        } else if (datalog::BuiltinBindsOutput(atom.builtin)) {
          if (i + 1 == atom.terms.size()) arith_output[t.var] = true;
        } else if (atom.builtin == datalog::BuiltinOp::kEq) {
          eq_compared[t.var] = true;
        } else if (atom.builtin != datalog::BuiltinOp::kNe) {
          compared[t.var] = true;
        }
      }
    }
    for (const datalog::Atom& atom : rule.body) {
      if (!atom.is_relational() || atom.negated) continue;
      for (size_t col = 0; col < atom.terms.size(); ++col) {
        const datalog::Term& t = atom.terms[col];
        if (t.is_var() && occurrences[t.var] <= 1) continue;
        ColumnAccess& access = profile.columns[{atom.predicate, col}];
        if (t.is_const() || relational_occurrences[t.var] > 1 ||
            arith_output[t.var] || eq_compared[t.var]) {
          ++access.point_uses;
        }
        if (t.is_var() && compared[t.var]) ++access.range_uses;
      }
    }
  }
  return profile;
}

StatsSnapshot StatsSnapshot::Capture(const storage::DatabaseSet& db) {
  StatsSnapshot snap;
  const size_t n = db.NumRelations();
  snap.cards_.resize(n);
  snap.index_masks_.assign(n, 0);
  for (size_t p = 0; p < n; ++p) {
    const auto pred = static_cast<datalog::PredicateId>(p);
    const storage::Relation& derived =
        db.Get(pred, storage::DbKind::kDerived);
    snap.cards_[p] = {derived.size(), db.DeltaSize(pred)};
    for (size_t col = 0; col < db.RelationArity(pred) && col < 32; ++col) {
      if (derived.HasIndex(col)) snap.index_masks_[p] |= (1u << col);
    }
  }
  return snap;
}

}  // namespace carac::optimizer
