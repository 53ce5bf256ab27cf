// Differential fuzzing: random (safe, stratified) Datalog programs are
// evaluated under every execution configuration, and all models must be
// identical. This is the strongest correctness net in the suite — any
// divergence between the interpreter, the compiled backends, the pull
// engine or the index settings shows up as a model mismatch. Naive
// evaluation, which shares none of the semi-naive split, is the oracle
// they all must match.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "core/engine.h"
#include "datalog/dsl.h"
#include "ir/interpreter.h"
#include "ir/lowering.h"
#include "util/rng.h"

namespace carac {
namespace {

using datalog::Program;

constexpr int kNumEdb = 2;
constexpr int kNumIdb = 3;
constexpr int64_t kDomain = 12;

/// Builds a random program: EDB facts over a small domain, then random
/// rules whose heads project onto body variables (range restriction by
/// construction) with occasional comparisons, safe EDB negation and an
/// occasional aggregate head. Negation targets only EDB relations and
/// aggregates only read (never feed) the recursive IDB core, so the
/// program is stratified by construction.
///
/// When `insert_facts` is false, the facts are only recorded in `facts`
/// (in generation order) instead of being inserted — the
/// incremental-vs-batch oracle replays them in random batches through
/// Engine::AddFacts + Update().
///
/// With `fuzz.lower_stratum` the program also gets the lower-stratum
/// shape (see below); without it, a seed generates the same program as
/// before that option existed.
struct FuzzCase {
  uint64_t seed = 0;
  bool lower_stratum = false;
};

void PrintTo(const FuzzCase& fuzz, std::ostream* os) {
  *os << "seed " << fuzz.seed << (fuzz.lower_stratum ? " lower-stratum" : "");
}

struct RandomProgram {
  std::unique_ptr<Program> program;
  std::vector<datalog::PredicateId> idb;
  std::vector<std::pair<datalog::PredicateId, storage::Tuple>> facts;

  explicit RandomProgram(const FuzzCase& fuzz, bool insert_facts = true) {
    util::Rng rng(fuzz.seed);
    program = std::make_unique<Program>();
    datalog::Dsl dsl(program.get());

    std::vector<datalog::RelationRef> edb;
    std::vector<datalog::RelationRef> all;
    for (int i = 0; i < kNumEdb; ++i) {
      edb.push_back(dsl.Relation("E" + std::to_string(i), 2));
      all.push_back(edb.back());
    }
    std::vector<datalog::RelationRef> idb_refs;
    for (int i = 0; i < kNumIdb; ++i) {
      idb_refs.push_back(dsl.Relation("I" + std::to_string(i), 2));
      all.push_back(idb_refs.back());
      idb.push_back(idb_refs.back().id());
    }

    // Facts.
    for (const auto& rel : edb) {
      const int num_facts = 10 + static_cast<int>(rng.NextBounded(15));
      for (int f = 0; f < num_facts; ++f) {
        storage::Tuple fact = {
            static_cast<int64_t>(rng.NextBounded(kDomain)),
            static_cast<int64_t>(rng.NextBounded(kDomain))};
        if (insert_facts) program->AddFact(rel.id(), fact);
        facts.emplace_back(rel.id(), std::move(fact));
      }
    }

    // Variables shared by all rules.
    std::vector<datalog::VarRef> vars;
    for (int v = 0; v < 4; ++v) vars.push_back(dsl.Var());

    // One random rule for `head_rel` whose positive atoms read `pool`.
    auto add_rule = [&](const datalog::RelationRef& head_rel,
                        const std::vector<datalog::RelationRef>& pool) {
      datalog::Rule rule;

      // Body: 1-3 positive atoms over random relations and variables.
      const int body_atoms = 1 + static_cast<int>(rng.NextBounded(3));
      std::set<datalog::VarId> bound;
      for (int a = 0; a < body_atoms; ++a) {
        const auto& rel = pool[rng.NextBounded(pool.size())];
        datalog::Atom atom;
        atom.predicate = rel.id();
        for (int t = 0; t < 2; ++t) {
          if (rng.NextBool(0.15)) {
            atom.terms.push_back(datalog::Term::MakeConst(
                static_cast<int64_t>(rng.NextBounded(kDomain))));
          } else {
            const auto var = vars[rng.NextBounded(vars.size())];
            atom.terms.push_back(datalog::Term::MakeVar(var.id));
            bound.insert(var.id);
          }
        }
        rule.body.push_back(std::move(atom));
      }
      std::vector<datalog::VarId> bound_list(bound.begin(), bound.end());

      // Comparison builtins: 0-2 per rule, each constraining a bound
      // variable against a constant or another bound variable, in
      // either direction (both `x < c` and `c < x` spellings).
      // Random constants make redundant and contradictory pairs
      // (x < 2, x > 9) common — exactly the interval-closing and
      // empty-range corners range pushdown must absorb while staying
      // model-identical to the filtered scan.
      if (!bound_list.empty()) {
        const int num_cmps = static_cast<int>(rng.NextBounded(3));
        static const datalog::BuiltinOp kCmps[] = {
            datalog::BuiltinOp::kLt, datalog::BuiltinOp::kLe,
            datalog::BuiltinOp::kGt, datalog::BuiltinOp::kGe,
            datalog::BuiltinOp::kEq, datalog::BuiltinOp::kNe};
        for (int c = 0; c < num_cmps; ++c) {
          datalog::Atom cmp;
          cmp.builtin = kCmps[rng.NextBounded(6)];
          const datalog::Term var_side = datalog::Term::MakeVar(
              bound_list[rng.NextBounded(bound_list.size())]);
          const datalog::Term other =
              rng.NextBool(0.5)
                  ? datalog::Term::MakeConst(
                        static_cast<int64_t>(rng.NextBounded(kDomain)))
                  : datalog::Term::MakeVar(
                        bound_list[rng.NextBounded(bound_list.size())]);
          const bool var_left = rng.NextBool(0.5);
          cmp.terms.push_back(var_left ? var_side : other);
          cmp.terms.push_back(var_left ? other : var_side);
          rule.body.push_back(std::move(cmp));
        }
      }

      // Optional negated EDB atom over bound variables (stratified and
      // safe by construction).
      if (!bound_list.empty() && rng.NextBool(0.25)) {
        datalog::Atom neg;
        neg.predicate = edb[rng.NextBounded(edb.size())].id();
        neg.negated = true;
        for (int t = 0; t < 2; ++t) {
          neg.terms.push_back(datalog::Term::MakeVar(
              bound_list[rng.NextBounded(bound_list.size())]));
        }
        rule.body.push_back(std::move(neg));
      }

      // Head: two terms drawn from bound variables (or constants when
      // the body bound nothing).
      rule.head.predicate = head_rel.id();
      for (int t = 0; t < 2; ++t) {
        if (bound_list.empty()) {
          rule.head.terms.push_back(datalog::Term::MakeConst(
              static_cast<int64_t>(rng.NextBounded(kDomain))));
        } else {
          rule.head.terms.push_back(datalog::Term::MakeVar(
              bound_list[rng.NextBounded(bound_list.size())]));
        }
      }
      CARAC_CHECK_OK(program->AddRule(std::move(rule)));
    };

    // Rules. Every IDB relation gets 1-3 rules.
    for (const auto& head_rel : idb_refs) {
      const int num_rules = 1 + static_cast<int>(rng.NextBounded(3));
      for (int r = 0; r < num_rules; ++r) add_rule(head_rel, all);
    }

    // The lower-stratum shape: L0 reads only relations defined before it,
    // so it is a non-recursive stratum of its own, and R0 closes over it
    // with a recursive rule that reads an L0 atom before its R0 atom, the
    // one its loop variant reads the delta at. In R0's loop L0's rows are
    // all its init pass's delta window, not old rows, so an old-only bound
    // on that atom would leave R0 at its base rules.
    if (fuzz.lower_stratum) {
      auto lower = dsl.Relation("L0", 2);
      auto rec = dsl.Relation("R0", 2);
      idb.push_back(lower.id());
      idb.push_back(rec.id());
      // Distinct variables, so no rule below collapses into a filter of
      // what its head already holds.
      std::vector<datalog::VarId> v;
      for (const datalog::VarRef& var : vars) v.push_back(var.id);
      for (size_t i = v.size() - 1; i > 0; --i) {
        std::swap(v[i], v[rng.NextBounded(i + 1)]);
      }
      auto atom = [](datalog::PredicateId pred, datalog::VarId x,
                     datalog::VarId y) {
        datalog::Atom out;
        out.predicate = pred;
        out.terms = {datalog::Term::MakeVar(x), datalog::Term::MakeVar(y)};
        return out;
      };
      // L0(a, b) :- Ek(a, b): a random EDB's edges keep L0 dense enough
      // to chain, then 0-1 random rules.
      datalog::Rule copy;
      copy.body.push_back(
          atom(edb[rng.NextBounded(edb.size())].id(), v[0], v[1]));
      copy.head = atom(lower.id(), v[0], v[1]);
      CARAC_CHECK_OK(program->AddRule(std::move(copy)));
      if (rng.NextBool(0.5)) add_rule(lower, all);
      all.push_back(lower);
      // R0(a, b) :- L0(a, b), and now and then a random base rule.
      datalog::Rule base;
      base.body.push_back(atom(lower.id(), v[0], v[1]));
      base.head = atom(rec.id(), v[0], v[1]);
      CARAC_CHECK_OK(program->AddRule(std::move(base)));
      if (rng.NextBool(0.5)) add_rule(rec, all);
      // R0(a, c) :- L0(a, b), R0(b, c)[, X(c, d)].
      datalog::Rule step;
      step.body.push_back(atom(lower.id(), v[0], v[1]));
      step.body.push_back(atom(rec.id(), v[1], v[2]));
      if (rng.NextBool(0.5)) {
        step.body.push_back(
            atom(all[rng.NextBounded(all.size())].id(), v[2], v[3]));
      }
      step.head = atom(rec.id(), v[0], v[2]);
      CARAC_CHECK_OK(program->AddRule(std::move(step)));
    }

    // Occasional aggregate head over a random relation: A(g, out) with
    // out = FUNC over the second column, grouped by the first. Aggregate
    // rules are non-recursive by validation, and nothing reads A, so
    // stratification holds; what this adds to the net is the aggregate
    // execution path (and, for the incremental oracle, the stratum
    // recompute fallback — growing any aggregate input retracts the old
    // group values).
    if (rng.NextBool(0.5)) {
      auto agg_rel = dsl.Relation("A0", 2);
      idb.push_back(agg_rel.id());
      const auto& source = all[rng.NextBounded(all.size())];
      static const datalog::AggFunc kFuncs[] = {
          datalog::AggFunc::kCount, datalog::AggFunc::kSum,
          datalog::AggFunc::kMin, datalog::AggFunc::kMax};
      const datalog::AggFunc func = kFuncs[rng.NextBounded(4)];
      datalog::Rule rule;
      const datalog::VarId g = program->NewVar("g");
      const datalog::VarId v = program->NewVar("v");
      const datalog::VarId out = program->NewVar("out");
      rule.head.predicate = agg_rel.id();
      rule.head.terms = {datalog::Term::MakeVar(g),
                         datalog::Term::MakeVar(out)};
      datalog::Atom body;
      body.predicate = source.id();
      body.terms = {datalog::Term::MakeVar(g), datalog::Term::MakeVar(v)};
      rule.body.push_back(std::move(body));
      rule.agg = func;
      rule.agg_operand = func == datalog::AggFunc::kCount ? -1 : v;
      CARAC_CHECK_OK(program->AddRule(std::move(rule)));
    }
  }
};

using Model = std::vector<std::vector<storage::Tuple>>;

Model Evaluate(const FuzzCase& fuzz, const core::EngineConfig& config) {
  RandomProgram rp(fuzz);
  core::Engine engine(rp.program.get(), config);
  CARAC_CHECK_OK(engine.Prepare());
  CARAC_CHECK_OK(engine.Run());
  Model model;
  for (datalog::PredicateId id : rp.idb) model.push_back(engine.Results(id));
  return model;
}

/// The independent oracle: naive evaluation. Each stratum repeats its
/// all-Derived initial pass until a pass derives nothing — the loop
/// baselines::RunDlxLike runs. Every Engine configuration shares the
/// lowering's semi-naive split, so a wrong old-only flag would drop the
/// same derivations in all of them and they would still agree; the
/// initial pass has no delta (delta_pos -1), hence no old-only atom, and
/// never meets that row bound. Aggregate programs fit the loop: an
/// aggregate reads only lower strata, complete before its pass runs, so
/// repeating the pass re-emits the same groups and derives nothing new.
Model EvaluateNaive(Program* program,
                    const std::vector<datalog::PredicateId>& idb) {
  ir::IRProgram irp;
  CARAC_CHECK_OK(ir::LowerProgram(program, /*declare_indexes=*/true, &irp));
  storage::DatabaseSet& db = program->db();
  ir::ExecContext ctx(&db);
  ir::Interpreter interp(&ctx);
  for (const auto& stratum : irp.root->children) {
    std::vector<ir::IROp*> passes;
    std::vector<datalog::PredicateId> relations;
    for (const auto& child : stratum->children) {
      if (child->kind == ir::OpKind::kUnionAll) {
        passes.push_back(child.get());
      } else if (child->kind == ir::OpKind::kSwapClear && relations.empty()) {
        relations = child->relations;
      }
    }
    do {
      for (ir::IROp* pass : passes) interp.ExecuteNode(*pass);
      db.SwapClearMerge(relations);
    } while (db.AnyDeltaNonEmpty(relations));
  }
  Model model;
  for (datalog::PredicateId id : idb) {
    model.push_back(db.Get(id, storage::DbKind::kDerived).SortedRows());
  }
  return model;
}

Model EvaluateNaive(const FuzzCase& fuzz) {
  RandomProgram rp(fuzz);
  return EvaluateNaive(rp.program.get(), rp.idb);
}

/// Incremental-vs-batch: replay the same program with its facts split
/// into `num_batches` random batches — the first loaded before the
/// initial Run(), the rest applied through AddFacts() + Update() epochs.
/// The final model must be byte-identical to one-shot evaluation over
/// the union of the facts (the `Evaluate` reference).
Model EvaluateIncremental(const FuzzCase& fuzz,
                          const core::EngineConfig& config,
                          int num_batches) {
  RandomProgram rp(fuzz, /*insert_facts=*/false);
  util::Rng batch_rng(fuzz.seed * 7919 + 13);
  std::vector<std::vector<std::pair<datalog::PredicateId, storage::Tuple>>>
      batches(num_batches);
  for (const auto& fact : rp.facts) {
    batches[batch_rng.NextBounded(static_cast<uint64_t>(num_batches))]
        .push_back(fact);
  }

  for (const auto& [pred, tuple] : batches[0]) {
    rp.program->AddFact(pred, tuple);
  }
  core::Engine engine(rp.program.get(), config);
  CARAC_CHECK_OK(engine.Prepare());
  CARAC_CHECK_OK(engine.Run());
  for (int b = 1; b < num_batches; ++b) {
    for (const auto& [pred, tuple] : batches[b]) {
      CARAC_CHECK_OK(engine.AddFacts(pred, {tuple}));
    }
    CARAC_CHECK_OK(engine.Update());
  }
  Model model;
  for (datalog::PredicateId id : rp.idb) model.push_back(engine.Results(id));
  return model;
}

/// Persistence arm: the same random program evaluated with a
/// save-and-reopen in the middle. The first `num_batches` batches run in
/// one engine (checkpointing to disk mid-stream, so both the snapshot
/// AND a fact-log tail exist), then a FRESH program + DatabaseSet is
/// recovered via Engine::Restore and the remaining `num_batches` batches
/// continue there. The final model must equal the uninterrupted run's.
Model EvaluatePersisted(const FuzzCase& fuzz, const core::EngineConfig& base,
                        int num_batches, const std::string& scratch_name) {
  const int total_batches = 2 * num_batches;
  RandomProgram rp(fuzz, /*insert_facts=*/false);
  util::Rng batch_rng(fuzz.seed * 7919 + 13);
  std::vector<std::vector<std::pair<datalog::PredicateId, storage::Tuple>>>
      batches(total_batches);
  for (const auto& fact : rp.facts) {
    batches[batch_rng.NextBounded(static_cast<uint64_t>(total_batches))]
        .push_back(fact);
  }

  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("carac_fuzz_" + scratch_name + "_" + std::to_string(fuzz.seed) +
       (fuzz.lower_stratum ? "_lower" : ""));
  std::filesystem::remove_all(dir);
  core::EngineConfig config = base;
  config.snapshot_dir = dir.string();

  // First life: batch 0 is program-source facts, the rest flow through
  // AddFacts (and hence the log); a checkpoint lands mid-stream.
  {
    for (const auto& [pred, tuple] : batches[0]) {
      rp.program->AddFact(pred, tuple);
    }
    core::Engine engine(rp.program.get(), config);
    CARAC_CHECK_OK(engine.Prepare());
    CARAC_CHECK_OK(engine.Run());
    // The checkpoint must land strictly BEFORE the last first-life
    // epoch, so recovery always crosses a snapshot AND a committed log
    // tail (with num_batches == 2 that means right after Run()).
    if (num_batches <= 2) CARAC_CHECK_OK(engine.Checkpoint());
    for (int b = 1; b < num_batches; ++b) {
      for (const auto& [pred, tuple] : batches[b]) {
        CARAC_CHECK_OK(engine.AddFacts(pred, {tuple}));
      }
      CARAC_CHECK_OK(engine.Update());
      if (b == num_batches / 2 && b < num_batches - 1) {
        CARAC_CHECK_OK(engine.Checkpoint());
      }
    }
  }

  // Second life: fresh everything, recovered from disk, then the
  // remaining batches as ordinary incremental epochs.
  RandomProgram fresh(fuzz, /*insert_facts=*/false);
  for (const auto& [pred, tuple] : batches[0]) {
    fresh.program->AddFact(pred, tuple);
  }
  core::Engine engine(fresh.program.get(), config);
  CARAC_CHECK_OK(engine.Prepare());
  CARAC_CHECK_OK(engine.Restore());
  for (int b = num_batches; b < total_batches; ++b) {
    for (const auto& [pred, tuple] : batches[b]) {
      CARAC_CHECK_OK(engine.AddFacts(pred, {tuple}));
    }
    CARAC_CHECK_OK(engine.Update());
  }
  Model model;
  for (datalog::PredicateId id : fresh.idb) {
    model.push_back(engine.Results(id));
  }
  std::filesystem::remove_all(dir);
  return model;
}

class FuzzDifferential : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(FuzzDifferential, AllConfigurationsAgree) {
  const FuzzCase& fuzz = GetParam();
  const Model reference =
      Evaluate(fuzz, core::EngineConfig{});  // Push, indexed, interpreted.

  EXPECT_EQ(EvaluateNaive(fuzz), reference) << "naive oracle";
  {
    core::EngineConfig config;
    config.use_indexes = false;
    EXPECT_EQ(Evaluate(fuzz, config), reference) << "unindexed";
  }
  {
    core::EngineConfig config;
    config.engine_style = ir::EngineStyle::kPull;
    EXPECT_EQ(Evaluate(fuzz, config), reference) << "pull";
  }
  for (storage::IndexKind kind :
       {storage::IndexKind::kSorted, storage::IndexKind::kBtree,
        storage::IndexKind::kSortedArray, storage::IndexKind::kLearned}) {
    core::EngineConfig config;
    config.index_kind = kind;
    EXPECT_EQ(Evaluate(fuzz, config), reference)
        << storage::IndexKindName(kind) << " index";
  }
  {
    // Self-tuning: the adaptive policy may re-kind columns between
    // epochs; answers must not move. The evidence gate is dropped so
    // these tiny programs can actually trigger migrations.
    core::EngineConfig config;
    config.adaptive_indexes = true;
    config.adaptive.min_probes = 1;
    config.adaptive.hysteresis_epochs = 1;
    config.adaptive.cooldown_epochs = 0;
    EXPECT_EQ(Evaluate(fuzz, config), reference) << "adaptive";
  }
  {
    core::EngineConfig config;
    config.aot_reorder = true;
    EXPECT_EQ(Evaluate(fuzz, config), reference) << "aot";
  }
  {
    // The filter-scan path (pushdown off) is the semantic baseline the
    // range-probe path must reproduce; the reference above ran with
    // pushdown on (the default).
    core::EngineConfig config;
    config.range_pushdown = false;
    EXPECT_EQ(Evaluate(fuzz, config), reference) << "pushdown off";
  }
  for (storage::IndexKind kind :
       {storage::IndexKind::kBtree, storage::IndexKind::kLearned}) {
    // The bytecode VM's kRangeOpen instruction (and its closed-interval
    // memo) against ordered kinds, both pushdown arms.
    for (bool pushdown : {true, false}) {
      core::EngineConfig config;
      config.mode = core::EvalMode::kJit;
      config.jit.backend = backends::BackendKind::kBytecode;
      config.jit.granularity = core::Granularity::kUnionAll;
      config.index_kind = kind;
      config.range_pushdown = pushdown;
      EXPECT_EQ(Evaluate(fuzz, config), reference)
          << "bytecode " << storage::IndexKindName(kind) << " pushdown "
          << (pushdown ? "on" : "off");
    }
  }
  for (backends::BackendKind backend :
       {backends::BackendKind::kLambda, backends::BackendKind::kBytecode,
        backends::BackendKind::kIRGenerator}) {
    core::EngineConfig config;
    config.mode = core::EvalMode::kJit;
    config.jit.backend = backend;
    config.jit.granularity = core::Granularity::kUnionAll;
    EXPECT_EQ(Evaluate(fuzz, config), reference)
        << backends::BackendKindName(backend);
  }
  {
    core::EngineConfig config;
    config.mode = core::EvalMode::kJit;
    config.jit.backend = backends::BackendKind::kBytecode;
    config.jit.async = true;
    EXPECT_EQ(Evaluate(fuzz, config), reference) << "bytecode async";
  }
  {
    core::EngineConfig config;
    config.mode = core::EvalMode::kJit;
    config.jit.backend = backends::BackendKind::kLambda;
    config.jit.mode = backends::CompileMode::kSnippet;
    EXPECT_EQ(Evaluate(fuzz, config), reference) << "lambda snippet";
  }
  // Parallel evaluation, crossed with both relational engines and both
  // index organizations. The random programs are tiny, so the dispatch
  // threshold is dropped to 1 — every subquery with a relational outer
  // atom runs through the shard/stage/merge path, which must stay
  // indistinguishable from single-threaded evaluation.
  for (int threads : {1, 2, 4}) {
    for (ir::EngineStyle style :
         {ir::EngineStyle::kPush, ir::EngineStyle::kPull}) {
      for (storage::IndexKind kind :
           {storage::IndexKind::kHash, storage::IndexKind::kBtree,
            storage::IndexKind::kSortedArray, storage::IndexKind::kLearned}) {
        for (bool pushdown : {true, false}) {
          core::EngineConfig config;
          config.num_threads = threads;
          config.parallel_min_outer_rows = 1;
          config.engine_style = style;
          config.index_kind = kind;
          config.range_pushdown = pushdown;
          EXPECT_EQ(Evaluate(fuzz, config), reference)
              << threads << " threads, " << ir::EngineStyleName(style)
              << " engine, " << storage::IndexKindName(kind)
              << " index, pushdown " << (pushdown ? "on" : "off");
        }
      }
    }
  }
}

// The incremental oracle: random programs — negation and aggregates
// included, so the stratum recompute fallback is exercised alongside
// monotone delta propagation — evaluated in K random fact batches must
// land on the one-shot model, under both relational engines and at every
// thread count (dispatch threshold forced to 1 so the staged-merge path
// runs even on these tiny deltas).
TEST_P(FuzzDifferential, IncrementalMatchesBatch) {
  const FuzzCase& fuzz = GetParam();
  const Model reference = Evaluate(fuzz, core::EngineConfig{});

  for (int num_batches : {2, 4}) {
    for (int threads : {1, 2, 4}) {
      for (ir::EngineStyle style :
           {ir::EngineStyle::kPush, ir::EngineStyle::kPull}) {
        core::EngineConfig config;
        config.num_threads = threads;
        config.parallel_min_outer_rows = 1;
        config.engine_style = style;
        EXPECT_EQ(EvaluateIncremental(fuzz, config, num_batches), reference)
            << num_batches << " batches, " << threads << " threads, "
            << ir::EngineStyleName(style) << " engine";
      }
    }
  }
  // One JIT configuration: compiled units must stay sound across epochs
  // (recompilation is gated by the freshness test, not epoch count).
  {
    core::EngineConfig config;
    config.mode = core::EvalMode::kJit;
    config.jit.backend = backends::BackendKind::kBytecode;
    config.jit.granularity = core::Granularity::kUnionAll;
    EXPECT_EQ(EvaluateIncremental(fuzz, config, 3), reference)
        << "bytecode jit incremental";
  }
  // AOT planning reorders the update tree too; the delta atoms are
  // re-fronted afterwards (rules-only planning prices them like any
  // other atom) and results must not move.
  for (bool fact_cards : {true, false}) {
    core::EngineConfig config;
    config.aot_reorder = true;
    config.aot.use_fact_cardinalities = fact_cards;
    EXPECT_EQ(EvaluateIncremental(fuzz, config, 3), reference)
        << (fact_cards ? "aot facts" : "aot rules-only") << " incremental";
  }
  // Pushdown off across epochs: incremental delta propagation must land
  // on the same model whichever access path serves the comparisons.
  {
    core::EngineConfig config;
    config.range_pushdown = false;
    EXPECT_EQ(EvaluateIncremental(fuzz, config, 3), reference)
        << "pushdown off incremental";
  }
  // Adaptive re-kinding across incremental epochs: every Update() closes
  // an epoch the policy observes, so migrations interleave with delta
  // propagation. Results must land on the one-shot model regardless.
  {
    core::EngineConfig config;
    config.adaptive_indexes = true;
    config.adaptive.min_probes = 1;
    config.adaptive.hysteresis_epochs = 1;
    config.adaptive.cooldown_epochs = 0;
    EXPECT_EQ(EvaluateIncremental(fuzz, config, 4), reference)
        << "adaptive incremental";
  }
}

// The persistence oracle: random programs — negation, aggregates and the
// stratum-recompute fallback included — saved to disk after K batches,
// reopened in a completely fresh DatabaseSet, and continued for K more
// batches must land on the uninterrupted one-shot model byte-for-byte.
// The first life checkpoints mid-stream, so recovery crosses BOTH a
// snapshot and a committed fact-log tail.
TEST_P(FuzzDifferential, PersistedReopenMatchesBatch) {
  const FuzzCase& fuzz = GetParam();
  const Model reference = Evaluate(fuzz, core::EngineConfig{});

  for (ir::EngineStyle style :
       {ir::EngineStyle::kPush, ir::EngineStyle::kPull}) {
    core::EngineConfig config;
    config.engine_style = style;
    EXPECT_EQ(EvaluatePersisted(fuzz, config, 2,
                                ir::EngineStyleName(style)),
              reference)
        << ir::EngineStyleName(style) << " engine, persisted";
  }
  {
    core::EngineConfig config;
    config.num_threads = 4;
    config.parallel_min_outer_rows = 1;
    EXPECT_EQ(EvaluatePersisted(fuzz, config, 3, "threads4"), reference)
        << "4 threads, persisted";
  }
}

// The lower-stratum shape, directed: a non-recursive lower stratum (Path)
// read before the delta atom of a recursive rule. Path's init-pass rows
// stay its delta window, so bounding that atom to "old" Path rows would
// hide all of them from Reach's loop; every engine must still match
// naive evaluation.
TEST(NaiveOracleTest, LowerStratumAtomBeforeTheDelta) {
  auto make = [](std::vector<datalog::PredicateId>* idb) {
    auto program = std::make_unique<Program>();
    datalog::Dsl dsl(program.get());
    auto edge = dsl.Relation("Edge", 2);
    auto path = dsl.Relation("Path", 2);
    auto reach = dsl.Relation("Reach", 2);
    auto [x, y, z] = dsl.Vars<3>();
    path(x, y) <<= edge(x, y);
    reach(x, y) <<= path(x, y);
    reach(x, z) <<= path(x, y) & reach(y, z);
    for (int64_t i = 0; i < 6; ++i) program->AddFact(edge.id(), {i, i + 1});
    *idb = {path.id(), reach.id()};
    return program;
  };
  std::vector<datalog::PredicateId> idb;
  auto naive_program = make(&idb);
  const Model naive = EvaluateNaive(naive_program.get(), idb);
  ASSERT_EQ(naive[1].size(), 21u);  // Every i < j on the 7-node chain.
  core::EngineConfig push;
  core::EngineConfig pull;
  pull.engine_style = ir::EngineStyle::kPull;
  core::EngineConfig bytecode;
  bytecode.mode = core::EvalMode::kJit;
  bytecode.jit.backend = backends::BackendKind::kBytecode;
  for (const core::EngineConfig& config : {push, pull, bytecode}) {
    auto program = make(&idb);
    core::Engine engine(program.get(), config);
    CARAC_CHECK_OK(engine.Prepare());
    CARAC_CHECK_OK(engine.Run());
    Model model;
    for (datalog::PredicateId id : idb) model.push_back(engine.Results(id));
    EXPECT_EQ(model, naive) << ir::EngineStyleName(config.engine_style) << " "
                            << (config.mode == core::EvalMode::kJit ? "jit"
                                                                    : "");
  }
}

/// Seeds [first, last) of one kind.
std::vector<FuzzCase> Cases(uint64_t first, uint64_t last,
                            bool lower_stratum) {
  std::vector<FuzzCase> cases;
  for (uint64_t seed = first; seed < last; ++seed) {
    cases.push_back({seed, lower_stratum});
  }
  return cases;
}

void CollectLoops(ir::IROp* op, std::vector<ir::IROp*>* loops) {
  if (op->kind == ir::OpKind::kDoWhile) loops->push_back(op);
  for (auto& child : op->children) CollectLoops(child.get(), loops);
}

void CollectSpjs(ir::IROp* op, std::vector<ir::IROp*>* spjs) {
  if (op->kind == ir::OpKind::kSpj) spjs->push_back(op);
  for (auto& child : op->children) CollectSpjs(child.get(), spjs);
}

/// True when `program` has the lower-stratum shape: in some stratum's
/// loop, a join atom before the variant's delta atom (in rule order, the
/// full tree's order) reads an IDB relation of a lower, non-recursive
/// stratum.
bool HasLowerStratumAtomBeforeTheDelta(Program* program) {
  ir::IRProgram irp;
  CARAC_CHECK_OK(ir::LowerProgram(program, /*declare_indexes=*/false, &irp));
  std::map<datalog::PredicateId, size_t> stratum_of;
  for (size_t s = 0; s < irp.strata.size(); ++s) {
    for (datalog::PredicateId p : irp.strata[s].predicates) stratum_of[p] = s;
  }
  for (size_t s = 0; s < irp.strata.size(); ++s) {
    std::vector<ir::IROp*> loops;
    CollectLoops(irp.strata[s].full, &loops);
    std::vector<ir::IROp*> spjs;
    for (ir::IROp* loop : loops) CollectSpjs(loop, &spjs);
    for (const ir::IROp* spj : spjs) {
      int32_t join_idx = 0;
      for (const ir::AtomSpec& atom : spj->atoms) {
        if (!atom.is_join_atom()) continue;
        if (join_idx++ >= spj->delta_pos) break;
        const auto it = stratum_of.find(atom.predicate);
        if (it != stratum_of.end() && it->second < s &&
            irp.strata[it->second].recursive_predicates.empty()) {
          return true;
        }
      }
    }
  }
  return false;
}

TEST(FuzzShapeTest, LowerStratumSeedsHaveTheShape) {
  for (const FuzzCase& fuzz : Cases(1, 13, /*lower_stratum=*/true)) {
    RandomProgram rp(fuzz);
    EXPECT_TRUE(HasLowerStratumAtomBeforeTheDelta(rp.program.get()))
        << "seed " << fuzz.seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferential,
                         ::testing::ValuesIn(Cases(1, 25, false)));
// The lower-stratum shape on top of seeds 1-12's programs.
INSTANTIATE_TEST_SUITE_P(LowerStratumSeeds, FuzzDifferential,
                         ::testing::ValuesIn(Cases(1, 13, true)));

}  // namespace
}  // namespace carac
