#ifndef CARAC_IR_IROP_H_
#define CARAC_IR_IROP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "datalog/ast.h"
#include "storage/database.h"

namespace carac::ir {

/// Local variable id inside one SPJ subquery. Lowering remaps the rule's
/// program-wide variables to dense per-subquery locals so that execution
/// and the compiled backends can use flat binding arrays.
using LocalVar = int32_t;

/// A term of an SPJ atom after local remapping.
struct LocalTerm {
  bool is_var = false;
  LocalVar var = -1;
  storage::Value constant = 0;

  static LocalTerm Var(LocalVar v) { return LocalTerm{true, v, 0}; }
  static LocalTerm Const(storage::Value c) { return LocalTerm{false, -1, c}; }
};

/// One side of a pushed-down range constraint on an atom column. The
/// bound value is either a constant or a local variable that is bound
/// BEFORE the atom executes; `strict` distinguishes `<` from `<=`.
struct BoundSpec {
  enum class Kind : uint8_t { kNone, kConst, kVar };
  Kind kind = Kind::kNone;
  storage::Value constant = 0;
  LocalVar var = -1;
  bool strict = false;

  bool present() const { return kind != Kind::kNone; }
};

/// One atom inside an SPJ subquery. Relational atoms read Derived through
/// a row window (all rows, or the semi-naive split of §II-A into old rows
/// and the delta); builtin atoms evaluate in place; negated atoms are
/// membership tests over all rows.
struct AtomSpec {
  datalog::BuiltinOp builtin = datalog::BuiltinOp::kNone;
  datalog::PredicateId predicate = datalog::kInvalidPredicate;
  bool negated = false;
  /// kDelta: the variant's delta atom (the paper's DeltaKnown). kOld:
  /// semi-naive "each derivation once" — a join atom that comes before
  /// its variant's delta atom in rule order reads only the rows that were
  /// in Derived before the last merge, the RowIds below
  /// DatabaseSet::OldRowLimit, so a derivation whose delta rows sit at
  /// several atoms is emitted only by the variant of the first one.
  storage::RowWindow window = storage::RowWindow::kAll;
  std::vector<LocalTerm> terms;

  /// Range pushdown (see ir::AnnotateRangeBounds): when >= 0, column
  /// `range_col` of this atom binds a fresh variable that downstream
  /// comparison builtins constrain — the evaluators MAY serve the atom
  /// through Relation::ProbeRange(range_col, lower, upper) instead of a
  /// full scan. The comparison builtins stay in `atoms` as residual
  /// filters, so executing the range as any superset (including a full
  /// scan) is always correct; the annotation is purely an access-path
  /// hint and never changes the result.
  int32_t range_col = -1;
  BoundSpec lower;
  BoundSpec upper;

  bool is_builtin() const { return builtin != datalog::BuiltinOp::kNone; }
  bool is_relational() const { return !is_builtin(); }
  /// True for positive relational atoms — the ones the join orderer moves.
  bool is_join_atom() const { return is_relational() && !negated; }
  bool has_range() const { return range_col >= 0; }
};

/// IR operator kinds, mirroring the paper's Fig. 4.
enum class OpKind : uint8_t {
  kProgram,    // Root: sequence of strata.
  kSequence,   // Ordered children.
  kDoWhile,    // Fixpoint loop: run body, repeat while any delta non-empty.
  kSwapClear,  // End-of-iteration delta maintenance for a relation set.
  kUnionAll,   // "UnionOp*": all subqueries feeding one relation.
  kUnion,      // Union of the SPJ subqueries of one rule definition.
  kSpj,        // Select-project-join + insert into the target delta.
  kAggregate,  // Grouped aggregation over a (non-recursive) rule body.
};

const char* OpKindName(OpKind kind);

/// A node of the IR program. A single tagged struct (rather than a class
/// hierarchy) keeps cloning, reordering and code generation simple — the
/// C++ analog of the paper's GADT encoding, which likewise allows every
/// node to be either interpreted or compiled.
struct IROp {
  OpKind kind;
  /// Unique id across the owning IRProgram; used as compile-cache key and
  /// as the continuation label spliced into snippet-compiled code.
  uint32_t node_id = 0;

  std::vector<std::unique_ptr<IROp>> children;

  /// kDoWhile / kSwapClear: the stratum's relations. kUnionAll: singleton —
  /// the fed relation.
  std::vector<datalog::PredicateId> relations;

  // ---- kSpj / kAggregate payload ----
  datalog::PredicateId target = datalog::kInvalidPredicate;
  /// Projection producing the head tuple, in head-column order.
  std::vector<LocalTerm> head_terms;
  /// Body atoms in execution order. The join orderer permutes this vector
  /// (positive relational atoms move; builtins and negations are re-placed
  /// at their earliest valid position).
  std::vector<AtomSpec> atoms;
  /// Number of distinct local variables across atoms + head.
  int32_t num_locals = 0;
  /// Which rule produced this subquery and which join atom reads the
  /// delta (-1 for the naive initial pass). Diagnostics and tests only.
  uint32_t rule_index = 0;
  int32_t delta_pos = -1;
  /// Update-tree subqueries pin their delta atom outermost, so the
  /// delta rows drive the join; lowering orders the remaining join atoms
  /// so each shares a variable with an earlier one (a probe per delta
  /// row, not a scan). Every reorderer (AOT and the JIT backends'
  /// compile-time replanning) keeps the delta first — see
  /// optimizer::ReorderSubquery.
  bool delta_pinned = false;
  /// Whether range pushdown was enabled when this subquery was lowered
  /// (EngineConfig::range_pushdown). Reorderers re-annotate bounds after
  /// permuting atoms only when set.
  bool range_pushdown = false;

  // kAggregate only:
  datalog::AggFunc agg = datalog::AggFunc::kNone;
  LocalVar agg_operand = -1;

  explicit IROp(OpKind k) : kind(k) {}
  IROp(const IROp&) = delete;
  IROp& operator=(const IROp&) = delete;

  /// Deep copy (fresh nodes share node_ids with the source — used by the
  /// backends to snapshot a subtree at compile time).
  std::unique_ptr<IROp> Clone() const;
};

/// Per-stratum evaluation plan: the stratum's predicates and change-
/// propagation metadata plus pointers to its two subtrees. `full` (the
/// naive pass + semi-naive loop under `root`) serves full evaluation and
/// stratum recompute; `update` (the watermark-seeded delta loop under
/// `update_root`) serves incremental epochs.
struct StratumPlan {
  /// IDB predicates defined by this stratum.
  std::vector<datalog::PredicateId> predicates;
  /// Predicates of this stratum read positively by its own rules — the
  /// only ones that can keep feeding the update loop after iteration 1,
  /// so they alone drive its termination test.
  std::vector<datalog::PredicateId> recursive_predicates;
  /// All predicates read by the stratum's rule bodies (see
  /// datalog::Stratum::body_inputs).
  std::vector<datalog::PredicateId> body_inputs;
  /// Inputs whose growth forces a stratum recompute (see
  /// datalog::Stratum::recompute_triggers).
  std::vector<datalog::PredicateId> recompute_triggers;
  IROp* full = nullptr;
  IROp* update = nullptr;
};

/// A lowered program: the IR tree plus lookup tables.
struct IRProgram {
  std::unique_ptr<IROp> root;
  /// The incremental twin of `root`: per stratum, a DoWhile loop whose
  /// subqueries read the delta at EVERY positive atom position in turn
  /// (EDB and lower-stratum atoms included, unlike the in-loop delta
  /// split under `root`, which only targets same-stratum atoms). An
  /// update epoch sets each delta window to the Derived rows past the
  /// relation's watermark and runs these loops to fixpoint.
  std::unique_ptr<IROp> update_root;
  uint32_t num_nodes = 0;

  /// Stratum metadata in evaluation order; strata[i].full is
  /// root->children[i], strata[i].update is update_root->children[i].
  std::vector<StratumPlan> strata;

  /// node_id -> node, for snippet continuations. Covers both trees —
  /// node ids are unique across root and update_root.
  std::vector<IROp*> by_id;

  void RebuildIndex();

  /// Multi-line rendering for debugging and golden tests (the full tree;
  /// pass update_root to OpToString for the incremental twin).
  std::string ToString(const datalog::Program& program) const;
};

/// Renders one node (subtree) as an indented string.
std::string OpToString(const IROp& op, const datalog::Program& program,
                       int indent = 0);

}  // namespace carac::ir

#endif  // CARAC_IR_IROP_H_
