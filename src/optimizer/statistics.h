#ifndef CARAC_OPTIMIZER_STATISTICS_H_
#define CARAC_OPTIMIZER_STATISTICS_H_

#include <array>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "datalog/ast.h"
#include "ir/irop.h"
#include "storage/database.h"

namespace carac::optimizer {

/// How a rule set accesses one indexed column — the evidence index-kind
/// selection (selectivity.h ChooseIndexKind) weighs at Prepare() time.
struct ColumnAccess {
  /// Point-probe evidence: a constant in this column, the column's
  /// variable shared with another relational atom (a join key), or the
  /// variable bound by an arithmetic builtin's output. All of these turn
  /// into equality probes at evaluation time.
  uint32_t point_uses = 0;
  /// Range evidence: the column's variable appears as a comparison
  /// builtin operand (x < y, x >= 3, ...).
  uint32_t range_uses = 0;
};

/// Per-(predicate, column) access evidence for every column the lowering
/// pass will declare an index on (ir/lowering.cc DeclareRuleIndexes uses
/// the same trigger: constant term, or variable with >1 occurrence across
/// the rule body).
struct AccessPathProfile {
  std::map<std::pair<datalog::PredicateId, size_t>, ColumnAccess> columns;
};

/// Walks the program's rules and classifies every to-be-indexed column's
/// accesses. Purely syntactic — no evaluation has happened yet when the
/// engine consumes this — which is exactly the paper's "offline" share of
/// optimization cost.
AccessPathProfile ProfileAccessPaths(const datalog::Program& program);

/// An immutable snapshot of the statistics the join orderer consumes:
/// live cardinalities of every relation's Derived store and delta window
/// plus index availability. Captured on the evaluation thread at
/// optimization (or compile-enqueue) time so that asynchronous compilation
/// never races with evaluation — this is the "concrete instances of
/// relations plugged directly into the reordering algorithm" of §IV.
class StatsSnapshot {
 public:
  StatsSnapshot() = default;

  static StatsSnapshot Capture(const storage::DatabaseSet& db);

  /// Rows an atom reading `window` of `pred` is priced at: the delta
  /// window's size for kDelta, else Derived's size, old-only atoms
  /// included.
  uint64_t Cardinality(datalog::PredicateId pred,
                       storage::RowWindow window) const {
    return cards_[pred][window == storage::RowWindow::kDelta ? 1 : 0];
  }

  bool HasIndex(datalog::PredicateId pred, size_t column) const {
    return (index_masks_[pred] >> column) & 1u;
  }

  size_t num_relations() const { return cards_.size(); }

  /// Cardinality of the rows an atom reads; 0 for builtins.
  uint64_t AtomCardinality(const ir::AtomSpec& atom) const {
    if (atom.is_builtin()) return 0;
    return Cardinality(atom.predicate, atom.window);
  }

 private:
  std::vector<std::array<uint64_t, 2>> cards_;  // {Derived, delta}.
  std::vector<uint32_t> index_masks_;
};

}  // namespace carac::optimizer

#endif  // CARAC_OPTIMIZER_STATISTICS_H_
