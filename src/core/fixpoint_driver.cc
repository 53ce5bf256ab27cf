#include "core/fixpoint_driver.h"

#include <algorithm>
#include <vector>

#include "ir/interpreter.h"

namespace carac::core {

std::string EpochReport::ToString() const {
  std::string out;
  out += "epoch=" + std::to_string(epoch);
  out += full ? " full" : " incremental";
  out += " seeded=" + std::to_string(seeded_rows);
  out += " strata[inc=" + std::to_string(strata_incremental);
  out += " recomputed=" + std::to_string(strata_recomputed);
  out += " skipped=" + std::to_string(strata_skipped) + "]";
  out += " " + stats.ToString();
  return out;
}

util::Status FixpointDriver::JitError() const {
  if (jit_ == nullptr) return util::Status::Ok();
  return jit_->manager().first_error();
}

util::Status FixpointDriver::RunFull(EpochReport* report) {
  const ir::ExecStats before = ctx_->stats();
  storage::DatabaseSet& db = ctx_->db();
  if (db.epoch() > 0) {
    // A re-entered full run is FROM-SCRATCH evaluation, not a delta
    // epoch: derived state may be stale w.r.t. facts appended since the
    // last epoch boundary (negation and aggregates are non-monotone, so
    // merely re-running the rules over the surviving Derived stores
    // could keep retracted conclusions alive). Reset every IDB relation
    // to its EDB facts and let the naive pass re-derive it.
    for (const ir::StratumPlan& plan : irp_->strata) {
      for (datalog::PredicateId p : plan.predicates) db.ResetToEdbFacts(p);
    }
  }
  ir::Interpreter interp(ctx_, jit_);
  interp.Execute(*irp_->root);
  db.AdvanceEpoch();
  if (report != nullptr) {
    *report = EpochReport{};
    report->epoch = db.epoch();
    report->full = true;
    report->stats = ir::ExecStats::Delta(ctx_->stats(), before);
  }
  return JitError();
}

util::Status FixpointDriver::RunUpdateEpoch(EpochReport* report) {
  const ir::ExecStats before = ctx_->stats();
  storage::DatabaseSet& db = ctx_->db();
  ir::Interpreter interp(ctx_, jit_);

  EpochReport local;
  // Per relation: did it gain facts this epoch (including facts derived
  // by an earlier stratum of this same epoch), and may it have LOST
  // facts (its stratum was recomputed)? Retraction taints downstream
  // strata: monotone delta propagation cannot un-derive.
  std::vector<char> changed(db.NumRelations(), 0);
  std::vector<char> retracted(db.NumRelations(), 0);
  for (storage::RelationId id = 0; id < db.NumRelations(); ++id) {
    changed[id] = db.ChangedSinceWatermark(id) ? 1 : 0;
  }

  for (ir::StratumPlan& plan : irp_->strata) {
    bool needs_recompute = false;
    for (datalog::PredicateId p : plan.body_inputs) {
      if (retracted[p]) needs_recompute = true;
    }
    for (datalog::PredicateId p : plan.recompute_triggers) {
      if (changed[p]) needs_recompute = true;
    }
    if (needs_recompute) {
      for (datalog::PredicateId p : plan.predicates) db.ResetToEdbFacts(p);
      interp.Execute(*plan.full);
      local.strata_recomputed++;
      for (datalog::PredicateId p : plan.predicates) {
        changed[p] = 1;
        retracted[p] = 1;
      }
      continue;
    }

    bool any_changed = false;
    for (datalog::PredicateId p : plan.body_inputs) {
      if (changed[p]) any_changed = true;
    }
    for (datalog::PredicateId p : plan.predicates) {
      if (changed[p]) any_changed = true;
    }
    if (!any_changed) {
      local.strata_skipped++;
      continue;
    }

    // Incremental pass: set the delta window of everything the stratum
    // reads or defines to the Derived rows past its watermark (dropping
    // any window a previous evaluation left), then run the delta loop.
    // Unchanged relations seed an empty window.
    for (datalog::PredicateId p : plan.predicates) {
      local.seeded_rows += db.SeedDeltaFromWatermark(p);
    }
    for (datalog::PredicateId p : plan.body_inputs) {
      const bool own =
          std::find(plan.predicates.begin(), plan.predicates.end(), p) !=
          plan.predicates.end();
      if (!own) local.seeded_rows += db.SeedDeltaFromWatermark(p);
    }
    interp.Execute(*plan.update);
    local.strata_incremental++;
    for (datalog::PredicateId p : plan.predicates) {
      if (db.ChangedSinceWatermark(p)) changed[p] = 1;
    }
  }

  db.AdvanceEpoch();
  local.epoch = db.epoch();
  local.full = false;
  local.stats = ir::ExecStats::Delta(ctx_->stats(), before);
  if (report != nullptr) *report = local;
  return JitError();
}

}  // namespace carac::core
