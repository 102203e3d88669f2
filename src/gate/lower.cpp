#include "gate/lower.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/check.hpp"

namespace fdbist::gate {

namespace {

struct Lowerer {
  const rtl::Graph& g;
  const LoweringOptions& opt;
  Netlist nl;
  std::vector<std::vector<NetId>> bits;
  // Carry-save state: redundant (sum, carry) vectors per node, the
  // effective lowered format per node (carry-save nodes are widened to
  // one uniform accumulator format), and membership flags.
  std::vector<std::pair<std::vector<NetId>, std::vector<NetId>>> red;
  std::vector<fx::Format> lowered_fmt;
  std::vector<char> csa_adder;
  std::vector<char> csa_reg;
  fx::Format acc_fmt{2, 0};
  NetId const0 = kNoNet;
  NetId const1 = kNoNet;
  // Forward-bound (feedback) registers: flops are emitted during the
  // sweep with open D pins, then patched once the driver is lowered.
  struct PendingForwardReg {
    rtl::NodeId node;
    std::size_t reg_base; ///< first entry in nl.registers()
  };
  std::vector<PendingForwardReg> forward_regs;
  // Structural-hashing table: (op, a, b) -> existing net. Shares the
  // duplicated sign-extension logic that CSD shift-add trees otherwise
  // replicate per bit position.
  std::unordered_map<std::uint64_t, NetId> cse;

  Lowerer(const rtl::Graph& graph, const LoweringOptions& options)
      : g(graph), opt(options) {
    const0 = nl.add_gate(GateOp::Const0);
    const1 = nl.add_gate(GateOp::Const1);
    bits.resize(g.size());
    red.resize(g.size());
    lowered_fmt.resize(g.size());
    csa_adder.assign(g.size(), 0);
    csa_reg.assign(g.size(), 0);
    for (std::size_t i = 0; i < g.size(); ++i)
      lowered_fmt[i] = g.node(static_cast<rtl::NodeId>(i)).fmt;
    configure_carry_save();
  }

  void configure_carry_save() {
    if (opt.carry_save_accumulators.empty()) return;
    for (const rtl::NodeId r : g.registers())
      FDBIST_REQUIRE(g.node(r).a < r,
                     "carry-save lowering does not support feedback "
                     "(forward-bound) registers");
    // All carry-save stages share one (widest) accumulator format so
    // redundant pairs never need component-wise sign extension, which
    // would be incorrect.
    int width = 2;
    int frac = 0;
    for (const rtl::NodeId id : opt.carry_save_accumulators) {
      const rtl::Node& nd = g.node(id);
      FDBIST_REQUIRE(nd.kind == rtl::OpKind::Add ||
                         nd.kind == rtl::OpKind::Sub,
                     "carry-save targets must be adders");
      FDBIST_REQUIRE(nd.kind != rtl::OpKind::Sub ||
                         g.node(nd.b).kind != rtl::OpKind::Reg,
                     "carry-save subtract must subtract the product "
                     "operand (b), not the pipeline value");
      width = std::max(width, nd.fmt.width);
      frac = std::max(frac, nd.fmt.frac);
    }
    acc_fmt = fx::Format{width, frac};
    for (const rtl::NodeId id : opt.carry_save_accumulators) {
      csa_adder[std::size_t(id)] = 1;
      lowered_fmt[std::size_t(id)] = acc_fmt;
      // The pipeline (chain) operand is `a` by construction of the FIR
      // builder: a delayed accumulator register or a zero constant.
      const rtl::NodeId chain = g.node(id).a;
      if (g.node(chain).kind == rtl::OpKind::Reg) {
        csa_reg[std::size_t(chain)] = 1;
        lowered_fmt[std::size_t(chain)] = acc_fmt;
      }
    }
  }

  // --- folding gate constructors -------------------------------------
  //
  // These implement the paper's "redundant operator elimination" [2,3]:
  // cells whose operands are constants, identical nets, or complements
  // reduce to wiring (or fewer gates), so no structurally undetectable
  // fault sites are emitted.

  bool is_not_of(NetId maybe_not, NetId src) const {
    const Gate& gt = nl.gate(maybe_not);
    return gt.op == GateOp::Not && gt.a == src;
  }

  NetId emit(GateOp op, NetId a, NetId b, const GateOrigin& og) {
    if (op != GateOp::Not && a > b) std::swap(a, b); // commutative ops
    const std::uint64_t key =
        (static_cast<std::uint64_t>(op) << 60) |
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 30) |
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(b + 1));
    const auto it = cse.find(key);
    if (it != cse.end()) return it->second;
    const NetId id = nl.add_gate(op, a, b, og);
    cse.emplace(key, id);
    return id;
  }

  NetId make_not(NetId a, const GateOrigin& og) {
    if (a == const0) return const1;
    if (a == const1) return const0;
    const Gate& gt = nl.gate(a);
    if (gt.op == GateOp::Not) return gt.a; // double negation
    return emit(GateOp::Not, a, kNoNet, og);
  }

  NetId make_xor(NetId a, NetId b, const GateOrigin& og) {
    if (a == b) return const0;
    if (a == const0) return b;
    if (b == const0) return a;
    if (a == const1) return make_not(b, og);
    if (b == const1) return make_not(a, og);
    if (is_not_of(a, b) || is_not_of(b, a)) return const1;
    return emit(GateOp::Xor, a, b, og);
  }

  NetId make_and(NetId a, NetId b, const GateOrigin& og) {
    if (a == const0 || b == const0) return const0;
    if (a == b || b == const1) return a;
    if (a == const1) return b;
    if (is_not_of(a, b) || is_not_of(b, a)) return const0;
    return emit(GateOp::And, a, b, og);
  }

  NetId make_or(NetId a, NetId b, const GateOrigin& og) {
    if (a == const1 || b == const1) return const1;
    if (a == b || b == const0) return a;
    if (a == const0) return b;
    if (is_not_of(a, b) || is_not_of(b, a)) return const1;
    return emit(GateOp::Or, a, b, og);
  }

  // Bits of node `n`, materializing a vector-merge ripple adder if the
  // node only exists as a carry-save pair.
  const std::vector<NetId>& merged_bits(rtl::NodeId n) {
    auto& b = bits[std::size_t(n)];
    if (!b.empty()) return b;
    const auto& [s, c] = red[std::size_t(n)];
    FDBIST_ASSERT(!s.empty(), "node has neither plain nor redundant bits");
    b = ripple_add(s, c, /*invert_b=*/false, /*carry_in=*/const0, n);
    return b;
  }

  // Bit `j` of operand `src` after alignment to format `dst`
  // (sign-extension above the MSB, zero-fill below the LSB).
  NetId aligned_bit(rtl::NodeId src, const fx::Format& dst, int j) {
    const fx::Format sf = lowered_fmt[std::size_t(src)];
    const auto& sb = merged_bits(src);
    const int shift = dst.frac - sf.frac; // left shift of the raw value
    const int idx = j - shift;
    if (idx < 0) return const0;
    if (idx >= sf.width) return sb.back(); // sign bit
    return sb[std::size_t(idx)];
  }

  // Generic ripple-carry sum of two equal-length bit vectors (the
  // classic 5-gate cell, LSB carry folded, MSB carry omitted).
  std::vector<NetId> ripple_add(const std::vector<NetId>& a,
                                const std::vector<NetId>& b, bool invert_b,
                                NetId carry_in, rtl::NodeId origin_node) {
    FDBIST_ASSERT(a.size() == b.size(), "ripple operand width mismatch");
    const int w = static_cast<int>(a.size());
    std::vector<NetId> out(a.size());
    NetId carry = carry_in;
    for (int i = 0; i < w; ++i) {
      const GateOrigin og{origin_node, static_cast<std::int16_t>(i),
                          CellRole::None};
      auto orig = [&](CellRole r) {
        GateOrigin o = og;
        o.role = r;
        return o;
      };
      NetId bi = b[std::size_t(i)];
      if (invert_b) bi = make_not(bi, orig(CellRole::OperandNot));
      const NetId ai = a[std::size_t(i)];
      const NetId x1 = make_xor(ai, bi, orig(CellRole::SumXor1));
      out[std::size_t(i)] = make_xor(x1, carry, orig(CellRole::SumXor2));
      if (i != w - 1) {
        const NetId a1 = make_and(ai, bi, orig(CellRole::CarryAnd1));
        const NetId a2 = make_and(x1, carry, orig(CellRole::CarryAnd2));
        carry = make_or(a1, a2, orig(CellRole::CarryOr));
      }
    }
    return out;
  }

  void lower_add_sub(rtl::NodeId id, const rtl::Node& nd) {
    const bool is_sub = nd.kind == rtl::OpKind::Sub;
    const int w = nd.fmt.width;
    std::vector<NetId> a(static_cast<std::size_t>(w));
    std::vector<NetId> b(static_cast<std::size_t>(w));
    for (int i = 0; i < w; ++i) {
      a[std::size_t(i)] = aligned_bit(nd.a, nd.fmt, i);
      b[std::size_t(i)] = aligned_bit(nd.b, nd.fmt, i);
    }
    bits[std::size_t(id)] =
        ripple_add(a, b, is_sub, is_sub ? const1 : const0, id);
  }

  // Carry-save 3:2 compressor stage: (S', C') = compress(S, C, p) with
  // the product operand optionally inverted (subtraction injects its +1
  // through the carry vector's free LSB).
  void lower_csa_stage(rtl::NodeId id, const rtl::Node& nd) {
    const int w = acc_fmt.width;
    const bool is_sub = nd.kind == rtl::OpKind::Sub;

    // Chain operand: redundant pair, or a plain value with a zero carry
    // vector (chain head / constant).
    std::vector<NetId> s_in(static_cast<std::size_t>(w), const0);
    std::vector<NetId> c_in(static_cast<std::size_t>(w), const0);
    const rtl::NodeId chain = nd.a;
    if (!red[std::size_t(chain)].first.empty()) {
      s_in = red[std::size_t(chain)].first;
      c_in = red[std::size_t(chain)].second;
      FDBIST_ASSERT(static_cast<int>(s_in.size()) == w,
                    "carry-save chain width mismatch");
    } else {
      for (int i = 0; i < w; ++i)
        s_in[std::size_t(i)] = aligned_bit(chain, acc_fmt, i);
    }
    if (is_sub) {
      FDBIST_ASSERT(c_in[0] == const0,
                    "carry vector LSB must be free for the subtract +1");
      c_in[0] = const1;
    }

    std::vector<NetId> s_out(static_cast<std::size_t>(w));
    std::vector<NetId> c_out(static_cast<std::size_t>(w), const0);
    for (int i = 0; i < w; ++i) {
      const GateOrigin og{id, static_cast<std::int16_t>(i), CellRole::None};
      auto orig = [&](CellRole r) {
        GateOrigin o = og;
        o.role = r;
        return o;
      };
      NetId pi = aligned_bit(nd.b, acc_fmt, i);
      if (is_sub) pi = make_not(pi, orig(CellRole::OperandNot));
      const NetId x1 =
          make_xor(s_in[std::size_t(i)], c_in[std::size_t(i)],
                   orig(CellRole::SumXor1));
      s_out[std::size_t(i)] = make_xor(x1, pi, orig(CellRole::SumXor2));
      if (i != w - 1) {
        const NetId a1 = make_and(s_in[std::size_t(i)],
                                  c_in[std::size_t(i)],
                                  orig(CellRole::CarryAnd1));
        const NetId a2 = make_and(x1, pi, orig(CellRole::CarryAnd2));
        c_out[std::size_t(i + 1)] =
            make_or(a1, a2, orig(CellRole::CarryOr));
      }
    }
    red[std::size_t(id)] = {std::move(s_out), std::move(c_out)};
  }

  void lower_reg(rtl::NodeId id, const rtl::Node& nd) {
    if (nd.a >= id) {
      // Feedback register: the driver is lowered later, so every bit
      // gets a real flop now (no const0-state elision — the driver is
      // unknown) and the D pins are patched after the sweep.
      FDBIST_ASSERT(!csa_reg[std::size_t(id)],
                    "carry-save chains cannot contain feedback registers");
      const std::size_t base = nl.registers().size();
      std::vector<NetId> q(std::size_t(nd.fmt.width));
      for (int j = 0; j < nd.fmt.width; ++j) {
        const NetId qn = nl.add_gate(
            GateOp::RegOut, kNoNet, kNoNet,
            {id, static_cast<std::int16_t>(j), CellRole::None});
        nl.registers().push_back({kNoNet, qn});
        q[std::size_t(j)] = qn;
      }
      bits[std::size_t(id)] = std::move(q);
      forward_regs.push_back({id, base});
      return;
    }

    auto make_reg_vector = [&](const std::vector<NetId>& d_bits) {
      std::vector<NetId> q(d_bits.size());
      for (std::size_t j = 0; j < d_bits.size(); ++j) {
        if (d_bits[j] == const0) {
          q[j] = const0; // constant state: no flop needed
          continue;
        }
        const NetId qn = nl.add_gate(
            GateOp::RegOut, kNoNet, kNoNet,
            {id, static_cast<std::int16_t>(j), CellRole::None});
        nl.registers().push_back({d_bits[j], qn});
        q[j] = qn;
      }
      return q;
    };

    if (csa_reg[std::size_t(id)]) {
      // Pipeline register of a carry-save chain: hold the pair.
      const rtl::NodeId src = nd.a;
      if (!red[std::size_t(src)].first.empty()) {
        red[std::size_t(id)] = {
            make_reg_vector(red[std::size_t(src)].first),
            make_reg_vector(red[std::size_t(src)].second)};
      } else {
        // Chain head: register the plain value at the accumulator
        // width; the carry vector is identically zero.
        std::vector<NetId> d(std::size_t(acc_fmt.width));
        for (int j = 0; j < acc_fmt.width; ++j)
          d[std::size_t(j)] = aligned_bit(src, acc_fmt, j);
        red[std::size_t(id)] = {
            make_reg_vector(d),
            std::vector<NetId>(std::size_t(acc_fmt.width), const0)};
        bits[std::size_t(id)] = red[std::size_t(id)].first;
      }
      return;
    }

    // Aligned, not copied: a carry-save stage feeding a plain register
    // (a zero tap between two pipeline registers) is lowered at the
    // accumulator width, not at the register's own format.
    std::vector<NetId> d(std::size_t(nd.fmt.width));
    for (int j = 0; j < nd.fmt.width; ++j)
      d[std::size_t(j)] = aligned_bit(nd.a, nd.fmt, j);
    bits[std::size_t(id)] = make_reg_vector(d);
  }

  void run() {
    g.validate();
    for (std::size_t i = 0; i < g.size(); ++i) {
      const auto id = static_cast<rtl::NodeId>(i);
      const rtl::Node& nd = g.node(id);
      switch (nd.kind) {
      case rtl::OpKind::Input: {
        std::vector<NetId> b(std::size_t(nd.fmt.width));
        for (auto& n : b) n = nl.add_gate(GateOp::Input);
        nl.inputs().push_back(b);
        bits[i] = std::move(b);
        break;
      }
      case rtl::OpKind::Const: {
        std::vector<NetId> b(std::size_t(nd.fmt.width));
        for (int j = 0; j < nd.fmt.width; ++j)
          b[std::size_t(j)] = ((nd.cval >> j) & 1) ? const1 : const0;
        bits[i] = std::move(b);
        break;
      }
      case rtl::OpKind::Reg:
        lower_reg(id, nd);
        break;
      case rtl::OpKind::Add:
      case rtl::OpKind::Sub:
        if (csa_adder[i])
          lower_csa_stage(id, nd);
        else
          lower_add_sub(id, nd);
        break;
      case rtl::OpKind::Scale:
        // Pure reinterpretation: identical raw bits.
        if (!red[std::size_t(nd.a)].first.empty())
          red[i] = red[std::size_t(nd.a)];
        else
          bits[i] = merged_bits(nd.a);
        lowered_fmt[i] = fx::Format{lowered_fmt[std::size_t(nd.a)].width,
                                    lowered_fmt[std::size_t(nd.a)].frac +
                                        nd.shift};
        break;
      case rtl::OpKind::Resize: {
        std::vector<NetId> b(std::size_t(nd.fmt.width));
        for (int j = 0; j < nd.fmt.width; ++j)
          b[std::size_t(j)] = aligned_bit(nd.a, nd.fmt, j);
        bits[i] = std::move(b);
        break;
      }
      case rtl::OpKind::Output:
        bits[i] = merged_bits(nd.a);
        lowered_fmt[i] = lowered_fmt[std::size_t(nd.a)];
        nl.outputs().push_back(bits[i]);
        break;
      }
    }
    for (const PendingForwardReg& fr : forward_regs) {
      const rtl::Node& nd = g.node(fr.node);
      for (int j = 0; j < nd.fmt.width; ++j)
        nl.registers()[fr.reg_base + std::size_t(j)].d =
            aligned_bit(nd.a, nd.fmt, j);
    }
    nl.validate();
  }
};

} // namespace

LoweredDesign lower(const rtl::Graph& g, const LoweringOptions& opt) {
  Lowerer lw(g, opt);
  lw.run();
  return {std::move(lw.nl), std::move(lw.bits), std::move(lw.red)};
}

LoweredDesign lower_carry_save(const rtl::FilterDesign& d) {
  FDBIST_REQUIRE(!d.structural_adders.empty(),
                 "design has no structural accumulation chain");
  LoweringOptions opt;
  opt.carry_save_accumulators = d.structural_adders;
  return lower(d.graph, opt);
}

} // namespace fdbist::gate
