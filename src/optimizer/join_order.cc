#include "optimizer/join_order.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "ir/access_path.h"
#include "ir/lowering.h"
#include "optimizer/selectivity.h"

namespace carac::optimizer {

namespace {

/// Estimated output cardinality of joining `atom` into an intermediate of
/// size `current`: current * |atom| * reduction^#conditions (§IV).
double EstimateJoin(const StatsSnapshot& stats, const JoinOrderConfig& config,
                    double current, const ir::AtomSpec& atom,
                    const std::set<ir::LocalVar>& bound) {
  const double card =
      config.use_cardinalities
          ? static_cast<double>(stats.AtomCardinality(atom))
          : config.assumed_cardinality;
  const int conditions = CountBoundConditions(atom, bound);
  return current * card * std::pow(config.reduction_factor, conditions);
}

/// True if an atom can be probed through an index on a bound column.
bool HasUsableIndex(const StatsSnapshot& stats, const ir::AtomSpec& atom,
                    const std::set<ir::LocalVar>& bound) {
  const int32_t probe_col = ir::FirstProbeColumn(
      atom, [&](ir::LocalVar v) { return bound.count(v) > 0; },
      [&](size_t col) { return stats.HasIndex(atom.predicate, col); });
  return probe_col >= 0;
}

}  // namespace

bool ReorderSubquery(const StatsSnapshot& stats, const JoinOrderConfig& config,
                     ir::IROp* op) {
  std::vector<ir::AtomSpec> joins;
  std::vector<ir::AtomSpec> floaters;
  for (const ir::AtomSpec& atom : op->atoms) {
    (atom.is_join_atom() ? joins : floaters).push_back(atom);
  }
  if (joins.size() <= 1) return false;

  std::vector<ir::AtomSpec> ordered;
  ordered.reserve(joins.size());
  std::vector<bool> used(joins.size(), false);
  std::set<ir::LocalVar> bound;
  double current = 1.0;

  // Update-epoch subqueries pin their delta atom outermost (an empty
  // delta then short-circuits the whole variant — the property that keeps
  // epoch cost proportional to the delta). The cost model alone does not
  // guarantee this: rules-only planning prices every atom identically,
  // and JIT replanning captures mid-epoch stats where the delta is
  // non-empty. So the greedy's first pick is constrained to the delta;
  // everything behind it is ordered as usual.
  bool pin_delta = false;
  if (op->delta_pinned) {
    for (const ir::AtomSpec& join : joins) {
      pin_delta |= join.window == storage::RowWindow::kDelta;
    }
  }

  for (size_t step = 0; step < joins.size(); ++step) {
    int best = -1;
    double best_estimate = std::numeric_limits<double>::infinity();
    bool best_connected = false;
    bool best_indexed = false;
    for (size_t j = 0; j < joins.size(); ++j) {
      if (used[j]) continue;
      if (pin_delta && step == 0 &&
          joins[j].window != storage::RowWindow::kDelta) {
        continue;
      }
      const double estimate =
          EstimateJoin(stats, config, current, joins[j], bound);
      // First atom: connectivity is meaningless; afterwards prefer
      // connected atoms unless a disconnected one is free (empty input,
      // e.g. an empty delta — the paper's 7th-iteration example).
      const bool connected = step == 0 || IsConnected(joins[j], bound);
      const bool indexed = config.prefer_indexes && step > 0 &&
                           HasUsableIndex(stats, joins[j], bound);
      bool better = false;
      if (best < 0) {
        better = true;
      } else if (connected != best_connected && estimate > 0 &&
                 best_estimate > 0) {
        better = connected;
      } else if (estimate != best_estimate) {
        better = estimate < best_estimate;
      } else if (indexed != best_indexed) {
        better = indexed;
      }
      if (better) {
        best = static_cast<int>(j);
        best_estimate = estimate;
        best_connected = connected;
        best_indexed = indexed;
      }
    }
    used[best] = true;
    current = std::max(best_estimate, 1.0);
    for (const ir::LocalTerm& t : joins[best].terms) {
      if (t.is_var) bound.insert(t.var);
    }
    ordered.push_back(joins[best]);
  }

  std::vector<ir::AtomSpec> scheduled = ir::ScheduleAtoms(ordered, floaters);
  // Range bounds are derived from atom order (a bound-variable bound is
  // only usable if its variable binds BEFORE the atom), so recompute them
  // for the new order. Excluded from the change comparison below: bounds
  // are an access-path hint, not plan structure.
  const bool changed = [&] {
    if (scheduled.size() != op->atoms.size()) return true;
    for (size_t i = 0; i < scheduled.size(); ++i) {
      const ir::AtomSpec& a = scheduled[i];
      const ir::AtomSpec& b = op->atoms[i];
      if (a.predicate != b.predicate || a.window != b.window ||
          a.builtin != b.builtin || a.negated != b.negated) {
        return true;
      }
      if (a.terms.size() != b.terms.size()) return true;
      for (size_t t = 0; t < a.terms.size(); ++t) {
        if (a.terms[t].is_var != b.terms[t].is_var ||
            (a.terms[t].is_var ? a.terms[t].var != b.terms[t].var
                               : a.terms[t].constant != b.terms[t].constant)) {
          return true;
        }
      }
    }
    return false;
  }();
  op->atoms = std::move(scheduled);
  if (op->range_pushdown) ir::AnnotateRangeBounds(op);
  return changed;
}

int ReorderSubtree(const StatsSnapshot& stats, const JoinOrderConfig& config,
                   ir::IROp* op) {
  int changed = 0;
  if (op->kind == ir::OpKind::kSpj || op->kind == ir::OpKind::kAggregate) {
    if (ReorderSubquery(stats, config, op)) ++changed;
  }
  for (auto& child : op->children) {
    changed += ReorderSubtree(stats, config, child.get());
  }
  return changed;
}

}  // namespace carac::optimizer
