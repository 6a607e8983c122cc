// Formal equivalence checking over ROBDDs (see equiv.hpp). Boolean semantics
// builds one BDD per output; ternary semantics builds the dual-rail pair
// (can0, can1) per node — the same algebra the 64-lane packed evaluator
// uses, lifted from 64-bit words to BDDs.

#include "mcsn/netlist/bdd.hpp"
#include "mcsn/netlist/equiv.hpp"

namespace mcsn {

namespace {

// --- Boolean single-rail ----------------------------------------------------

Bdd::Ref cell_bdd(Bdd& m, CellKind k, Bdd::Ref a, Bdd::Ref b, Bdd::Ref c) {
  switch (k) {
    case CellKind::inv: return m.bdd_not(a);
    case CellKind::and2: return m.bdd_and(a, b);
    case CellKind::or2: return m.bdd_or(a, b);
    case CellKind::nand2: return m.bdd_not(m.bdd_and(a, b));
    case CellKind::nor2: return m.bdd_not(m.bdd_or(a, b));
    case CellKind::xor2: return m.bdd_xor(a, b);
    case CellKind::xnor2: return m.bdd_xnor(a, b);
    case CellKind::mux2: return m.ite(c, b, a);
    case CellKind::aoi21: return m.bdd_not(m.bdd_or(m.bdd_and(a, b), c));
    case CellKind::oai21: return m.bdd_not(m.bdd_and(m.bdd_or(a, b), c));
    case CellKind::ao21: return m.bdd_or(m.bdd_and(a, b), c);
    case CellKind::oa21: return m.bdd_and(m.bdd_or(a, b), c);
    default: return Bdd::kFalse;
  }
}

// --- Ternary dual-rail -------------------------------------------------------

struct Rail {
  Bdd::Ref can0 = Bdd::kTrue;
  Bdd::Ref can1 = Bdd::kFalse;
};

Rail rail_const(bool v) {
  return v ? Rail{Bdd::kFalse, Bdd::kTrue} : Rail{Bdd::kTrue, Bdd::kFalse};
}

Rail rail_not(Rail a) { return {a.can1, a.can0}; }

Rail rail_and(Bdd& m, Rail a, Rail b) {
  return {m.bdd_or(a.can0, b.can0), m.bdd_and(a.can1, b.can1)};
}

Rail rail_or(Bdd& m, Rail a, Rail b) {
  return {m.bdd_and(a.can0, b.can0), m.bdd_or(a.can1, b.can1)};
}

Rail rail_xor(Bdd& m, Rail a, Rail b) {
  return {m.bdd_or(m.bdd_and(a.can0, b.can0), m.bdd_and(a.can1, b.can1)),
          m.bdd_or(m.bdd_and(a.can0, b.can1), m.bdd_and(a.can1, b.can0))};
}

Rail rail_mux(Bdd& m, Rail d0, Rail d1, Rail s) {
  return {m.bdd_or(m.bdd_and(s.can0, d0.can0), m.bdd_and(s.can1, d1.can0)),
          m.bdd_or(m.bdd_and(s.can0, d0.can1), m.bdd_and(s.can1, d1.can1))};
}

Rail cell_rail(Bdd& m, CellKind k, Rail a, Rail b, Rail c) {
  switch (k) {
    case CellKind::inv: return rail_not(a);
    case CellKind::and2: return rail_and(m, a, b);
    case CellKind::or2: return rail_or(m, a, b);
    case CellKind::nand2: return rail_not(rail_and(m, a, b));
    case CellKind::nor2: return rail_not(rail_or(m, a, b));
    case CellKind::xor2: return rail_xor(m, a, b);
    case CellKind::xnor2: return rail_not(rail_xor(m, a, b));
    case CellKind::mux2: return rail_mux(m, a, b, c);
    case CellKind::aoi21: return rail_not(rail_or(m, rail_and(m, a, b), c));
    case CellKind::oai21: return rail_not(rail_and(m, rail_or(m, a, b), c));
    case CellKind::ao21: return rail_or(m, rail_and(m, a, b), c);
    case CellKind::oa21: return rail_and(m, rail_or(m, a, b), c);
    default: return rail_const(false);
  }
}

std::vector<int> effective_order(const Netlist& nl,
                                 const std::vector<int>& requested) {
  const std::size_t width = nl.inputs().size();
  std::vector<int> order(width);
  if (requested.size() == width) {
    order = requested;
  } else {
    for (std::size_t i = 0; i < width; ++i) order[i] = static_cast<int>(i);
  }
  return order;
}

std::vector<Bdd::Ref> build_boolean(Bdd& m, const Netlist& nl,
                                    const std::vector<int>& order) {
  std::vector<Bdd::Ref> value(nl.node_count(), Bdd::kFalse);
  std::size_t next_input = 0;
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    const GateNode& g = nl.node(id);
    switch (g.kind) {
      case CellKind::input:
        value[id] = m.var(order[next_input++]);
        break;
      case CellKind::const0: value[id] = Bdd::kFalse; break;
      case CellKind::const1: value[id] = Bdd::kTrue; break;
      default:
        value[id] = cell_bdd(m, g.kind, value[g.in[0]], value[g.in[1]],
                             value[g.in[2]]);
    }
  }
  std::vector<Bdd::Ref> outs;
  outs.reserve(nl.outputs().size());
  for (const OutputPort& o : nl.outputs()) outs.push_back(value[o.node]);
  return outs;
}

std::vector<Rail> build_ternary(Bdd& m, const Netlist& nl,
                                const std::vector<int>& order) {
  std::vector<Rail> value(nl.node_count());
  std::size_t next_input = 0;
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    const GateNode& g = nl.node(id);
    switch (g.kind) {
      case CellKind::input: {
        const int rank = order[next_input++];
        value[id] = Rail{m.var(2 * rank), m.var(2 * rank + 1)};
        break;
      }
      case CellKind::const0: value[id] = rail_const(false); break;
      case CellKind::const1: value[id] = rail_const(true); break;
      default:
        value[id] = cell_rail(m, g.kind, value[g.in[0]], value[g.in[1]],
                              value[g.in[2]]);
    }
  }
  std::vector<Rail> outs;
  outs.reserve(nl.outputs().size());
  for (const OutputPort& o : nl.outputs()) outs.push_back(value[o.node]);
  return outs;
}

}  // namespace

FormalEquivResult check_equivalence_formal(const Netlist& a, const Netlist& b,
                                           const FormalEquivOptions& opt) {
  require_same_ports("check_equivalence_formal", a, b);
  const std::size_t width = a.inputs().size();
  const std::vector<int> order = effective_order(a, opt.var_order);

  FormalEquivResult res;
  if (opt.semantics == EquivSemantics::boolean_only) {
    Bdd m(static_cast<int>(width), opt.node_limit);
    const auto oa = build_boolean(m, a, order);
    const auto ob = build_boolean(m, b, order);
    Bdd::Ref diff = Bdd::kFalse;
    for (std::size_t o = 0; o < oa.size(); ++o) {
      diff = m.bdd_or(diff, m.bdd_xor(oa[o], ob[o]));
    }
    res.bdd_nodes = m.node_count();
    res.equivalent = m.is_contradiction(diff);
    if (!res.equivalent) {
      const auto assign = m.satisfy_one(diff);
      Word w(width);
      for (std::size_t i = 0; i < width; ++i) {
        const auto v = (*assign)[static_cast<std::size_t>(order[i])];
        w[i] = to_trit(v.value_or(false));
      }
      res.witness = w;
    }
    return res;
  }

  // Ternary: two rails per input; rail pair (0,0) is outside the care space.
  Bdd m(static_cast<int>(2 * width), opt.node_limit);
  const auto oa = build_ternary(m, a, order);
  const auto ob = build_ternary(m, b, order);
  Bdd::Ref care = Bdd::kTrue;
  for (std::size_t i = 0; i < width; ++i) {
    const int rank = order[i];
    care = m.bdd_and(care, m.bdd_or(m.var(2 * rank), m.var(2 * rank + 1)));
  }
  Bdd::Ref diff = Bdd::kFalse;
  for (std::size_t o = 0; o < oa.size(); ++o) {
    diff = m.bdd_or(diff, m.bdd_xor(oa[o].can0, ob[o].can0));
    diff = m.bdd_or(diff, m.bdd_xor(oa[o].can1, ob[o].can1));
  }
  const Bdd::Ref bad = m.bdd_and(care, diff);
  res.bdd_nodes = m.node_count();
  res.equivalent = m.is_contradiction(bad);
  if (!res.equivalent) {
    const auto assign = m.satisfy_one(bad);
    Word w(width);
    for (std::size_t i = 0; i < width; ++i) {
      const int rank = order[i];
      auto c0 = (*assign)[static_cast<std::size_t>(2 * rank)];
      auto c1 = (*assign)[static_cast<std::size_t>(2 * rank + 1)];
      // Unassigned rails are don't-care for `bad`; fill keeping the pair in
      // the care space.
      if (!c0 && !c1) {
        c0 = true;
        c1 = false;
      } else if (!c0) {
        c0 = !*c1;
      } else if (!c1) {
        c1 = !*c0;
      }
      if (*c0 && *c1) {
        w[i] = Trit::meta;
      } else {
        w[i] = *c1 ? Trit::one : Trit::zero;
      }
    }
    res.witness = w;
  }
  return res;
}

}  // namespace mcsn
