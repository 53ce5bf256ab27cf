#include <gtest/gtest.h>

#include <map>
#include <set>

#include "analysis/factgen.h"
#include "analysis/programs.h"
#include "datalog/dsl.h"
#include "ir/lowering.h"

namespace carac::ir {
namespace {

using datalog::Dsl;
using datalog::Program;

struct Lowered {
  std::unique_ptr<Program> program;
  IRProgram irp;
};

/// Collects all nodes of a kind in the subtree.
void Collect(IROp* op, OpKind kind, std::vector<IROp*>* out) {
  if (op->kind == kind) out->push_back(op);
  for (auto& child : op->children) Collect(child.get(), kind, out);
}

TEST(LoweringTest, TransitiveClosureShape) {
  Program p;
  Dsl dsl(&p);
  auto edge = dsl.Relation("Edge", 2);
  auto path = dsl.Relation("Path", 2);
  auto [x, y, z] = dsl.Vars<3>();
  path(x, y) <<= edge(x, y);
  path(x, z) <<= path(x, y) & edge(y, z);

  IRProgram irp;
  ASSERT_TRUE(LowerProgram(&p, true, &irp).ok());
  ASSERT_NE(irp.root, nullptr);
  EXPECT_EQ(irp.root->kind, OpKind::kProgram);
  ASSERT_EQ(irp.root->children.size(), 1u);  // One stratum.

  std::vector<IROp*> loops;
  Collect(irp.root.get(), OpKind::kDoWhile, &loops);
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(loops[0]->relations, std::vector<datalog::PredicateId>{path.id()});

  // Init pass: 2 naive SPJs. Loop: 1 delta SPJ (one recursive atom).
  std::vector<IROp*> spjs;
  Collect(irp.root.get(), OpKind::kSpj, &spjs);
  ASSERT_EQ(spjs.size(), 3u);
  int naive = 0, delta = 0;
  for (IROp* spj : spjs) {
    (spj->delta_pos < 0 ? naive : delta)++;
  }
  EXPECT_EQ(naive, 2);
  EXPECT_EQ(delta, 1);
}

TEST(LoweringTest, DeltaSplitOnePerRecursiveAtom) {
  Program p;
  Dsl dsl(&p);
  auto seed = dsl.Relation("Seed", 2);
  auto t = dsl.Relation("T", 2);
  auto [x, y, z] = dsl.Vars<3>();
  t(x, y) <<= seed(x, y);
  t(x, z) <<= t(x, y) & t(y, z);  // Two recursive atoms -> two subqueries.

  IRProgram irp;
  ASSERT_TRUE(LowerProgram(&p, true, &irp).ok());
  std::vector<IROp*> loops;
  Collect(irp.root.get(), OpKind::kDoWhile, &loops);
  ASSERT_EQ(loops.size(), 1u);
  std::vector<IROp*> spjs;
  Collect(loops[0], OpKind::kSpj, &spjs);
  ASSERT_EQ(spjs.size(), 2u);
  // Each subquery reads exactly one delta.
  for (IROp* spj : spjs) {
    int deltas = 0;
    for (const AtomSpec& atom : spj->atoms) {
      if (atom.is_relational() &&
          atom.window == storage::RowWindow::kDelta) {
        ++deltas;
      }
    }
    EXPECT_EQ(deltas, 1);
  }
  EXPECT_NE(spjs[0]->delta_pos, spjs[1]->delta_pos);
}

TEST(LoweringTest, LowerStratumAtomsReadDerived) {
  Program p;
  Dsl dsl(&p);
  auto edge = dsl.Relation("Edge", 2);
  auto path = dsl.Relation("Path", 2);
  auto blocked = dsl.Relation("Blocked", 2);
  auto open_path = dsl.Relation("OpenPath", 2);
  auto [x, y, z] = dsl.Vars<3>();
  path(x, y) <<= edge(x, y);
  path(x, z) <<= path(x, y) & edge(y, z);
  open_path(x, y) <<= path(x, y) & !blocked(x, y);

  IRProgram irp;
  ASSERT_TRUE(LowerProgram(&p, true, &irp).ok());
  ASSERT_EQ(irp.root->children.size(), 2u);  // Two strata.

  // OpenPath's stratum: the path atom (lower stratum) reads Derived and
  // there is no DoWhile (non-recursive).
  IROp* second = irp.root->children[1].get();
  std::vector<IROp*> loops;
  Collect(second, OpKind::kDoWhile, &loops);
  EXPECT_TRUE(loops.empty());
  std::vector<IROp*> spjs;
  Collect(second, OpKind::kSpj, &spjs);
  ASSERT_EQ(spjs.size(), 1u);
  for (const AtomSpec& atom : spjs[0]->atoms) {
    if (atom.is_relational()) {
      EXPECT_EQ(atom.window, storage::RowWindow::kAll);
    }
  }
}

TEST(LoweringTest, UpdateTreeHasDeltaVariantPerPositiveAtom) {
  Program p;
  Dsl dsl(&p);
  auto edge = dsl.Relation("Edge", 2);
  auto path = dsl.Relation("Path", 2);
  auto [x, y, z] = dsl.Vars<3>();
  path(x, y) <<= edge(x, y);
  path(x, z) <<= path(x, y) & edge(y, z);

  IRProgram irp;
  ASSERT_TRUE(LowerProgram(&p, true, &irp).ok());
  ASSERT_NE(irp.update_root, nullptr);
  ASSERT_EQ(irp.strata.size(), 1u);
  EXPECT_EQ(irp.strata[0].full, irp.root->children[0].get());
  EXPECT_EQ(irp.strata[0].update, irp.update_root->children[0].get());
  EXPECT_EQ(irp.strata[0].predicates,
            std::vector<datalog::PredicateId>{path.id()});
  EXPECT_EQ(irp.strata[0].recursive_predicates,
            std::vector<datalog::PredicateId>{path.id()});
  EXPECT_TRUE(irp.strata[0].recompute_triggers.empty());

  // 1 positive atom in rule 1 + 2 in rule 2 = 3 update variants, each
  // with its delta atom moved to the FRONT (an empty delta then makes
  // the whole variant O(1)) and exactly one DeltaKnown read.
  std::vector<IROp*> spjs;
  Collect(irp.update_root.get(), OpKind::kSpj, &spjs);
  ASSERT_EQ(spjs.size(), 3u);
  for (IROp* spj : spjs) {
    ASSERT_FALSE(spj->atoms.empty());
    EXPECT_EQ(spj->atoms[0].window, storage::RowWindow::kDelta);
    int deltas = 0;
    for (const AtomSpec& atom : spj->atoms) {
      if (atom.is_relational() &&
          atom.window == storage::RowWindow::kDelta) {
        ++deltas;
      }
    }
    EXPECT_EQ(deltas, 1);
  }
  // Unlike the in-loop delta split, the EDB relation gets variants too:
  // an epoch that only grows Edge must still re-derive.
  int edge_deltas = 0;
  for (IROp* spj : spjs) {
    if (spj->atoms[0].predicate == edge.id()) ++edge_deltas;
  }
  EXPECT_EQ(edge_deltas, 2);

  // The update loop terminates on the stratum's own deltas, and its
  // SwapClear retires the seeded input deltas too.
  std::vector<IROp*> loops;
  Collect(irp.update_root.get(), OpKind::kDoWhile, &loops);
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(loops[0]->relations,
            std::vector<datalog::PredicateId>{path.id()});
  std::vector<IROp*> swaps;
  Collect(irp.update_root.get(), OpKind::kSwapClear, &swaps);
  ASSERT_EQ(swaps.size(), 1u);
  EXPECT_EQ(swaps[0]->relations,
            (std::vector<datalog::PredicateId>{edge.id(), path.id()}));
}

// ---- Update-variant join order: the delta first, then connected ----

/// True when every join atom after the first shares a variable with the
/// join atoms before it.
bool JoinsConnected(const IROp& spj) {
  std::set<LocalVar> bound;
  bool first = true;
  for (const AtomSpec& atom : spj.atoms) {
    if (!atom.is_join_atom()) continue;
    bool shares = false;
    for (const LocalTerm& t : atom.terms) {
      shares |= t.is_var && bound.count(t.var) > 0;
    }
    if (!first && !shares) return false;
    first = false;
    for (const LocalTerm& t : atom.terms) {
      if (t.is_var) bound.insert(t.var);
    }
  }
  return true;
}

TEST(LoweringTest, AndersenUpdateVariantsJoinInConnectedOrder) {
  // Rotating the delta to the front alone leaves the third-atom variant
  // of `PointsTo(v,o) :- Load(v,p), PointsTo(p,a), PointsTo(a,o)` as
  // [dPointsTo(a,o), Load(v,p), PointsTo(p,a)]: a scan of Load per delta
  // row. Both rule orders must lower without such a Cartesian step.
  for (auto order : {analysis::RuleOrder::kHandOptimized,
                     analysis::RuleOrder::kUnoptimized}) {
    analysis::SListConfig slist;
    slist.scale = 1;
    analysis::Workload w = analysis::MakeAndersen(slist, order);
    IRProgram irp;
    ASSERT_TRUE(LowerProgram(w.program.get(), true, &irp).ok());
    std::vector<IROp*> spjs;
    Collect(irp.update_root.get(), OpKind::kSpj, &spjs);
    ASSERT_EQ(spjs.size(), 9u);  // 1 + 2 + 3 + 3 positive body atoms.
    for (IROp* spj : spjs) {
      ASSERT_FALSE(spj->atoms.empty());
      EXPECT_EQ(spj->atoms[0].window, storage::RowWindow::kDelta);
      EXPECT_TRUE(JoinsConnected(*spj))
          << OpToString(*spj, *w.program);
    }
    if (order == analysis::RuleOrder::kHandOptimized) {
      const std::string rendered = OpToString(*irp.update_root, *w.program);
      EXPECT_NE(rendered.find("PointsTo(l0, l3) :- PointsTo@d(l2,l3), "
                              "PointsTo@o(l1,l2), Load@o(l0,l1)"),
                std::string::npos)
          << rendered;
    }
  }
}

TEST(LoweringTest, TcUpdateVariantsKeepTheRotatedOrder) {
  // Every TC variant is connected once its delta is first, so the atoms
  // after the delta keep their rule order: the plans lowering produced
  // when it only moved the delta to the front.
  Program p;
  Dsl dsl(&p);
  auto edge = dsl.Relation("Edge", 2);
  auto path = dsl.Relation("Path", 2);
  auto [x, y, z] = dsl.Vars<3>();
  path(x, y) <<= edge(x, y);
  path(x, z) <<= path(x, y) & edge(y, z);
  IRProgram irp;
  ASSERT_TRUE(LowerProgram(&p, true, &irp).ok());
  EXPECT_EQ(OpToString(*irp.update_root, p),
            "ProgramOp#1\n"
            "  SequenceOp#15\n"
            "    DoWhileOp#16 [Path]\n"
            "      SequenceOp#17\n"
            "        UnionOp*#18 [Path]\n"
            "          UnionOp#19\n"
            "            SPJOp#20 -> Path(l0, l1) :- Edge@d(l0,l1)\n"
            "          UnionOp#21\n"
            "            SPJOp#22 -> Path(l0, l2) :- Path@d(l0,l1), "
            "Edge@*(l1,l2)\n"
            "            SPJOp#23 -> Path(l0, l2) :- Edge@d(l1,l2), "
            "Path@o(l0,l1)\n"
            "        SwapClearOp#24 [Edge, Path]\n");
}

TEST(LoweringTest, FullTreeKeepsTheRuleOrder) {
  // The full tree and its in-loop semi-naive variants keep the user's
  // order (the paper's unoptimized vs hand-optimized variable): only
  // update variants are reordered.
  analysis::SListConfig slist;
  slist.scale = 1;
  analysis::Workload w =
      analysis::MakeAndersen(slist, analysis::RuleOrder::kHandOptimized);
  IRProgram irp;
  ASSERT_TRUE(LowerProgram(w.program.get(), true, &irp).ok());
  EXPECT_EQ(
      irp.ToString(*w.program),
      "ProgramOp#0\n"
      "  SequenceOp#2\n"
      "    UnionOp*#3 [PointsTo]\n"
      "      UnionOp#4\n"
      "        SPJOp#5 -> PointsTo(l0, l1) :- AddrOf@*(l0,l1)\n"
      "      UnionOp#6\n"
      "        SPJOp#7 -> PointsTo(l0, l2) :- Assign@*(l0,l1), "
      "PointsTo@*(l1,l2)\n"
      "      UnionOp#8\n"
      "        SPJOp#9 -> PointsTo(l0, l3) :- Load@*(l0,l1), "
      "PointsTo@*(l1,l2), PointsTo@*(l2,l3)\n"
      "      UnionOp#10\n"
      "        SPJOp#11 -> PointsTo(l2, l3) :- Store@*(l0,l1), "
      "PointsTo@*(l0,l2), PointsTo@*(l1,l3)\n"
      "    SwapClearOp#12 [PointsTo]\n"
      "    DoWhileOp#13 [PointsTo]\n"
      "      SequenceOp#14\n"
      "        UnionOp*#15 [PointsTo]\n"
      "          UnionOp#16\n"
      "            SPJOp#17 -> PointsTo(l0, l2) :- Assign@*(l0,l1), "
      "PointsTo@d(l1,l2)\n"
      "          UnionOp#18\n"
      "            SPJOp#19 -> PointsTo(l0, l3) :- Load@*(l0,l1), "
      "PointsTo@d(l1,l2), PointsTo@*(l2,l3)\n"
      "            SPJOp#20 -> PointsTo(l0, l3) :- Load@*(l0,l1), "
      "PointsTo@o(l1,l2), PointsTo@d(l2,l3)\n"
      "          UnionOp#21\n"
      "            SPJOp#22 -> PointsTo(l2, l3) :- Store@*(l0,l1), "
      "PointsTo@d(l0,l2), PointsTo@*(l1,l3)\n"
      "            SPJOp#23 -> PointsTo(l2, l3) :- Store@*(l0,l1), "
      "PointsTo@o(l0,l2), PointsTo@d(l1,l3)\n"
      "        SwapClearOp#24 [PointsTo]\n");
}

TEST(LoweringTest, DisconnectedBodyKeepsDeltaFirstAndEveryAtom) {
  // R(x,y) :- A(x), B(y) has no connected order: each variant keeps its
  // delta first and the other atom after it. In S(x,z) :- A(x), B(y),
  // C(y,z), B connects to dC before A does; from dA nothing connects, so
  // the earliest remaining atom (B) comes next, then C.
  Program p;
  Dsl dsl(&p);
  auto a = dsl.Relation("A", 1);
  auto b = dsl.Relation("B", 1);
  auto c = dsl.Relation("C", 2);
  auto r = dsl.Relation("R", 2);
  auto s = dsl.Relation("S", 2);
  auto [x, y, z] = dsl.Vars<3>();
  r(x, y) <<= a(x) & b(y);
  s(x, z) <<= a(x) & b(y) & c(y, z);
  IRProgram irp;
  ASSERT_TRUE(LowerProgram(&p, true, &irp).ok());
  std::vector<IROp*> spjs;
  Collect(irp.update_root.get(), OpKind::kSpj, &spjs);
  using Order = std::vector<datalog::PredicateId>;
  std::map<datalog::PredicateId, std::vector<Order>> orders;
  for (IROp* spj : spjs) {
    ASSERT_EQ(spj->atoms[0].window, storage::RowWindow::kDelta);
    Order order;
    for (const AtomSpec& atom : spj->atoms) order.push_back(atom.predicate);
    orders[spj->target].push_back(order);
  }
  EXPECT_EQ(orders[r.id()],
            (std::vector<Order>{{a.id(), b.id()}, {b.id(), a.id()}}));
  EXPECT_EQ(orders[s.id()], (std::vector<Order>{{a.id(), b.id(), c.id()},
                                                {b.id(), c.id(), a.id()},
                                                {c.id(), b.id(), a.id()}}));
}

// ---- Old-only atoms: each derivation once ----

/// One line per delta variant under `tree`, in execution order: the rule
/// index, the delta position (rule-order join index) and the variant's
/// old-only atoms in execution order, e.g. "r2 d2: P(l1,l2) Load(l0,l1)".
std::string OldOnlyAtoms(IROp* tree, const Program& p) {
  std::vector<IROp*> spjs;
  Collect(tree, OpKind::kSpj, &spjs);
  std::string out;
  for (const IROp* spj : spjs) {
    if (spj->delta_pos < 0) continue;
    out += "r" + std::to_string(spj->rule_index) + " d" +
           std::to_string(spj->delta_pos) + ":";
    for (const AtomSpec& atom : spj->atoms) {
      if (atom.window != storage::RowWindow::kOld) continue;
      out += " " + p.PredicateName(atom.predicate) + "(";
      for (size_t t = 0; t < atom.terms.size(); ++t) {
        if (t > 0) out += ",";
        out += "l" + std::to_string(atom.terms[t].var);
      }
      out += ")";
    }
    out += "\n";
  }
  return out;
}

TEST(LoweringTest, OldOnlyAtomsPrecedeTheDeltaInRuleOrder) {
  // Variant d of a rule reads DeltaKnown at join atom d and only the old
  // Derived rows at the eligible atoms before it, so a derivation whose
  // delta rows sit at several atoms is emitted once, by the first. In the
  // full tree's loop only same-stratum atoms are eligible (EDB Load and
  // Store never are); in the update tree every atom is, and the flag
  // travels with its atom through the connected reorder.
  {
    analysis::SListConfig slist;
    slist.scale = 1;
    analysis::Workload w =
        analysis::MakeAndersen(slist, analysis::RuleOrder::kHandOptimized);
    IRProgram irp;
    ASSERT_TRUE(LowerProgram(w.program.get(), true, &irp).ok());
    // Rules: r1 Assign-PointsTo, r2 Load-PointsTo-PointsTo, r3 Store.
    EXPECT_EQ(OldOnlyAtoms(irp.root.get(), *w.program),
              "r1 d1:\n"
              "r2 d1:\n"
              "r2 d2: PointsTo(l1,l2)\n"
              "r3 d1:\n"
              "r3 d2: PointsTo(l0,l2)\n");
    EXPECT_EQ(OldOnlyAtoms(irp.update_root.get(), *w.program),
              "r0 d0:\n"
              "r1 d0:\n"
              "r1 d1: Assign(l0,l1)\n"
              "r2 d0:\n"
              "r2 d1: Load(l0,l1)\n"
              "r2 d2: PointsTo(l1,l2) Load(l0,l1)\n"
              "r3 d0:\n"
              "r3 d1: Store(l0,l1)\n"
              "r3 d2: Store(l0,l1) PointsTo(l0,l2)\n");
  }
  {
    analysis::CspaConfig cspa;
    cspa.total_tuples = 10;
    analysis::Workload w =
        analysis::MakeCspa(cspa, analysis::RuleOrder::kHandOptimized);
    IRProgram irp;
    ASSERT_TRUE(LowerProgram(w.program.get(), true, &irp).ok());
    // VFlow, MAlias and VAlias are one stratum. r4 is the three-atom
    // VAlias rule: MAlias(v3,v0), VFlow(v3,v1), VFlow(v0,v2).
    EXPECT_EQ(OldOnlyAtoms(irp.root.get(), *w.program),
              "r0 d1:\n"
              "r1 d0:\n"
              "r1 d1: VFlow(l0,l1)\n"
              "r3 d0:\n"
              "r3 d1: VFlow(l0,l1)\n"
              "r4 d0:\n"
              "r4 d1: MAlias(l0,l1)\n"
              "r4 d2: MAlias(l0,l1) VFlow(l0,l2)\n"
              "r2 d0:\n");
  }
  {
    Program p;
    Dsl dsl(&p);
    auto edge = dsl.Relation("Edge", 2);
    auto path = dsl.Relation("Path", 2);
    auto [x, y, z] = dsl.Vars<3>();
    path(x, y) <<= edge(x, y);
    path(x, z) <<= path(x, y) & edge(y, z);
    IRProgram irp;
    ASSERT_TRUE(LowerProgram(&p, true, &irp).ok());
    EXPECT_EQ(OldOnlyAtoms(irp.root.get(), p), "r1 d0:\n");
    EXPECT_EQ(OldOnlyAtoms(irp.update_root.get(), p),
              "r0 d0:\n"
              "r1 d0:\n"
              "r1 d1: Path(l0,l1)\n");
  }
  {
    // The disconnected body: from dC the reorder runs B before A.
    Program p;
    Dsl dsl(&p);
    auto a = dsl.Relation("A", 1);
    auto b = dsl.Relation("B", 1);
    auto c = dsl.Relation("C", 2);
    auto s = dsl.Relation("S", 2);
    auto [x, y, z] = dsl.Vars<3>();
    s(x, z) <<= a(x) & b(y) & c(y, z);
    IRProgram irp;
    ASSERT_TRUE(LowerProgram(&p, true, &irp).ok());
    EXPECT_EQ(OldOnlyAtoms(irp.root.get(), p), "");
    EXPECT_EQ(OldOnlyAtoms(irp.update_root.get(), p),
              "r0 d0:\n"
              "r0 d1: A(l0)\n"
              "r0 d2: B(l1) A(l0)\n");
  }
  {
    // Path is a lower stratum read before Reach's delta. In-loop it stays
    // unflagged: Path's stratum has no loop, so its init-pass rows stay in
    // DeltaKnown and are not new to Reach's stratum. In an update epoch
    // every input's DeltaKnown is its watermark tail, so it is flagged.
    Program p;
    Dsl dsl(&p);
    auto edge = dsl.Relation("Edge", 2);
    auto path = dsl.Relation("Path", 2);
    auto reach = dsl.Relation("Reach", 2);
    auto [x, y, z] = dsl.Vars<3>();
    path(x, y) <<= edge(x, y);
    reach(x, y) <<= path(x, y);
    reach(x, z) <<= path(x, y) & reach(y, z);
    IRProgram irp;
    ASSERT_TRUE(LowerProgram(&p, true, &irp).ok());
    ASSERT_EQ(irp.strata.size(), 2u);
    EXPECT_EQ(OldOnlyAtoms(irp.root.get(), p), "r2 d1:\n");
    EXPECT_EQ(OldOnlyAtoms(irp.update_root.get(), p),
              "r0 d0:\n"
              "r1 d0:\n"
              "r2 d0:\n"
              "r2 d1: Path(l0,l1)\n");
  }
}

TEST(LoweringTest, UpdateTreeOmitsAggregateRules) {
  Program p;
  Dsl dsl(&p);
  auto link = dsl.Relation("Link", 2);
  auto deg = dsl.Relation("Deg", 2);
  auto [x, y, c] = dsl.Vars<3>();
  dsl.AggRule(deg(x, c), datalog::BodyExpr({link(x, y).atom()}),
              datalog::AggFunc::kCount);

  IRProgram irp;
  ASSERT_TRUE(LowerProgram(&p, true, &irp).ok());
  // The full tree has the AggregateOp; the update tree must not — a
  // delta variant of an aggregate would be unsound, so epochs touching
  // its inputs recompute via the full subtree instead.
  std::vector<IROp*> full_aggs, update_aggs, update_spjs;
  Collect(irp.root.get(), OpKind::kAggregate, &full_aggs);
  Collect(irp.update_root.get(), OpKind::kAggregate, &update_aggs);
  Collect(irp.update_root.get(), OpKind::kSpj, &update_spjs);
  EXPECT_EQ(full_aggs.size(), 1u);
  EXPECT_TRUE(update_aggs.empty());
  EXPECT_TRUE(update_spjs.empty());
}

TEST(LoweringTest, UpdateTreeNodeIdsIndexed) {
  Program p;
  Dsl dsl(&p);
  auto edge = dsl.Relation("Edge", 2);
  auto path = dsl.Relation("Path", 2);
  auto [x, y, z] = dsl.Vars<3>();
  path(x, y) <<= edge(x, y);
  path(x, z) <<= path(x, y) & edge(y, z);

  IRProgram irp;
  ASSERT_TRUE(LowerProgram(&p, true, &irp).ok());
  // Node ids are unique ACROSS the two trees and by_id covers both (the
  // JIT compile cache keys on node_id, so a collision would hand one
  // tree's compiled unit to the other).
  std::vector<bool> seen(irp.num_nodes, false);
  std::function<void(IROp*)> visit = [&](IROp* op) {
    ASSERT_LT(op->node_id, irp.num_nodes);
    EXPECT_FALSE(seen[op->node_id]);
    seen[op->node_id] = true;
    EXPECT_EQ(irp.by_id[op->node_id], op);
    for (auto& c : op->children) visit(c.get());
  };
  visit(irp.root.get());
  visit(irp.update_root.get());
}

TEST(LoweringTest, LocalVariableRemapIsDense) {
  Program p;
  Dsl dsl(&p);
  auto a = dsl.Relation("A", 2);
  auto b = dsl.Relation("B", 2);
  auto r = dsl.Relation("R", 2);
  // Use up some variable ids first so program ids aren't dense in rules.
  dsl.Var("unused1");
  dsl.Var("unused2");
  auto [x, y, z] = dsl.Vars<3>();
  r(x, z) <<= a(x, y) & b(y, z);

  IRProgram irp;
  ASSERT_TRUE(LowerProgram(&p, true, &irp).ok());
  std::vector<IROp*> spjs;
  Collect(irp.root.get(), OpKind::kSpj, &spjs);
  ASSERT_FALSE(spjs.empty());
  for (IROp* spj : spjs) {
    EXPECT_EQ(spj->num_locals, 3);
    for (const AtomSpec& atom : spj->atoms) {
      for (const LocalTerm& t : atom.terms) {
        if (t.is_var) {
          EXPECT_GE(t.var, 0);
          EXPECT_LT(t.var, spj->num_locals);
        }
      }
    }
  }
}

TEST(LoweringTest, IndexesDeclaredOnJoinAndFilterColumns) {
  Program p;
  Dsl dsl(&p);
  auto a = dsl.Relation("A", 2);
  auto b = dsl.Relation("B", 2);
  auto r = dsl.Relation("R", 2);
  auto [x, y, z] = dsl.Vars<3>();
  r(x, z) <<= a(x, y) & b(y, z);  // Join key: y = A.$1 = B.$0.
  IRProgram irp;
  ASSERT_TRUE(LowerProgram(&p, true, &irp).ok());
  EXPECT_TRUE(p.db().Get(a.id(), storage::DbKind::kDerived).HasIndex(1));
  EXPECT_TRUE(p.db().Get(b.id(), storage::DbKind::kDerived).HasIndex(0));
  // Non-join columns get no index.
  EXPECT_FALSE(p.db().Get(a.id(), storage::DbKind::kDerived).HasIndex(0));
}

TEST(LoweringTest, ConstantColumnsGetIndexes) {
  Program p;
  Dsl dsl(&p);
  auto a = dsl.Relation("A", 2);
  auto r = dsl.Relation("R", 1);
  auto x = dsl.Var("x");
  r(x) <<= a(7, x);
  IRProgram irp;
  ASSERT_TRUE(LowerProgram(&p, true, &irp).ok());
  EXPECT_TRUE(p.db().Get(a.id(), storage::DbKind::kDerived).HasIndex(0));
}

TEST(LoweringTest, ScheduleAtomsPlacesFloatersAfterBinders) {
  // joins: A(l0, l1); floaters: l2 = l1 + 1 then l2 < 5.
  AtomSpec join;
  join.predicate = 0;
  join.terms = {LocalTerm::Var(0), LocalTerm::Var(1)};

  AtomSpec add;
  add.builtin = datalog::BuiltinOp::kAdd;
  add.terms = {LocalTerm::Var(1), LocalTerm::Const(1), LocalTerm::Var(2)};

  AtomSpec cmp;
  cmp.builtin = datalog::BuiltinOp::kLt;
  cmp.terms = {LocalTerm::Var(2), LocalTerm::Const(5)};

  // The comparison depends on the Add output: it must come last even when
  // listed first.
  const auto scheduled = ScheduleAtoms({join}, {cmp, add});
  ASSERT_EQ(scheduled.size(), 3u);
  EXPECT_TRUE(scheduled[0].is_relational());
  EXPECT_EQ(scheduled[1].builtin, datalog::BuiltinOp::kAdd);
  EXPECT_EQ(scheduled[2].builtin, datalog::BuiltinOp::kLt);
}

TEST(LoweringTest, NodeIdsAreUniqueAndIndexed) {
  Program p;
  Dsl dsl(&p);
  auto edge = dsl.Relation("Edge", 2);
  auto path = dsl.Relation("Path", 2);
  auto [x, y, z] = dsl.Vars<3>();
  path(x, y) <<= edge(x, y);
  path(x, z) <<= path(x, y) & edge(y, z);

  IRProgram irp;
  ASSERT_TRUE(LowerProgram(&p, true, &irp).ok());
  std::vector<bool> seen(irp.num_nodes, false);
  std::function<void(IROp*)> visit = [&](IROp* op) {
    ASSERT_LT(op->node_id, irp.num_nodes);
    EXPECT_FALSE(seen[op->node_id]);
    seen[op->node_id] = true;
    EXPECT_EQ(irp.by_id[op->node_id], op);
    for (auto& c : op->children) visit(c.get());
  };
  visit(irp.root.get());
}

TEST(LoweringTest, CloneSharesNodeIdsDeepCopies) {
  Program p;
  Dsl dsl(&p);
  auto edge = dsl.Relation("Edge", 2);
  auto path = dsl.Relation("Path", 2);
  auto [x, y, z] = dsl.Vars<3>();
  path(x, z) <<= path(x, y) & edge(y, z);
  path(x, y) <<= edge(x, y);

  IRProgram irp;
  ASSERT_TRUE(LowerProgram(&p, true, &irp).ok());
  auto clone = irp.root->Clone();
  EXPECT_EQ(clone->node_id, irp.root->node_id);
  ASSERT_EQ(clone->children.size(), irp.root->children.size());
  EXPECT_NE(clone->children[0].get(), irp.root->children[0].get());
}

TEST(LoweringTest, ToStringMentionsOperators) {
  Program p;
  Dsl dsl(&p);
  auto edge = dsl.Relation("Edge", 2);
  auto path = dsl.Relation("Path", 2);
  auto [x, y, z] = dsl.Vars<3>();
  path(x, y) <<= edge(x, y);
  path(x, z) <<= path(x, y) & edge(y, z);
  IRProgram irp;
  ASSERT_TRUE(LowerProgram(&p, true, &irp).ok());
  const std::string rendered = irp.ToString(p);
  EXPECT_NE(rendered.find("ProgramOp"), std::string::npos);
  EXPECT_NE(rendered.find("DoWhileOp"), std::string::npos);
  EXPECT_NE(rendered.find("SwapClearOp"), std::string::npos);
  EXPECT_NE(rendered.find("SPJOp"), std::string::npos);
}

}  // namespace
}  // namespace carac::ir
