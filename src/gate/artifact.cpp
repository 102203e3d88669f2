#include "gate/artifact.hpp"

#include <string>
#include <vector>

namespace fdbist::gate {

using common::ByteReader;
using common::ByteWriter;

namespace {

Error corrupt(const std::string& what) {
  return Error{ErrorCode::CorruptArtifact, what};
}

bool needs_operand_a(GateOp op) {
  return op == GateOp::Not || op == GateOp::And || op == GateOp::Or ||
         op == GateOp::Xor;
}

bool needs_operand_b(GateOp op) {
  return op == GateOp::And || op == GateOp::Or || op == GateOp::Xor;
}

/// Read one i32 net-id group, validating every id against `nets`.
bool read_net_group(ByteReader& r, std::size_t nets,
                    std::vector<NetId>& out) {
  if (!r.take_array(r.take_u64(), out)) return false;
  for (const NetId id : out)
    if (id < 0 || std::size_t(id) >= nets) return false;
  return true;
}

} // namespace

void write_netlist(ByteWriter& w, const Netlist& nl) {
  w.put_u64(nl.size());
  for (const Gate& g : nl.gates()) {
    w.put_u8(std::uint8_t(g.op));
    w.put_i32(g.a);
    w.put_i32(g.b);
  }
  w.put_u64(nl.registers().size());
  for (const RegBit& rb : nl.registers()) {
    w.put_i32(rb.d);
    w.put_i32(rb.q);
  }
  w.put_u64(nl.inputs().size());
  for (const auto& group : nl.inputs()) {
    w.put_u64(group.size());
    w.put_array(group);
  }
  w.put_u64(nl.outputs().size());
  for (const auto& group : nl.outputs()) {
    w.put_u64(group.size());
    w.put_array(group);
  }
}

Expected<Netlist> read_netlist(ByteReader& r) {
  const std::uint64_t gate_count = r.take_u64();
  if (r.failed() || !r.count_fits(gate_count, 9))
    return corrupt("netlist gate count exceeds the file");
  Netlist nl;
  for (std::uint64_t i = 0; i < gate_count; ++i) {
    const std::uint8_t raw_op = r.take_u8();
    const NetId a = r.take_i32();
    const NetId b = r.take_i32();
    if (r.failed()) return corrupt("truncated netlist gates");
    if (raw_op > std::uint8_t(GateOp::Xor))
      return corrupt("gate " + std::to_string(i) + " has unknown op " +
                     std::to_string(raw_op));
    const GateOp op = GateOp(raw_op);
    // Mirror Netlist::add_gate's ordering REQUIREs non-throwing: a
    // corrupt file is an environmental failure, not an API-misuse bug.
    if (needs_operand_a(op) && (a < 0 || std::uint64_t(a) >= i))
      return corrupt("gate " + std::to_string(i) + " operand a out of order");
    if (needs_operand_b(op) && (b < 0 || std::uint64_t(b) >= i))
      return corrupt("gate " + std::to_string(i) + " operand b out of order");
    nl.add_gate(op, a, b);
  }

  const std::uint64_t reg_count = r.take_u64();
  if (r.failed() || !r.count_fits(reg_count, 8))
    return corrupt("register count exceeds the file");
  for (std::uint64_t i = 0; i < reg_count; ++i) {
    const NetId d = r.take_i32();
    const NetId q = r.take_i32();
    if (r.failed()) return corrupt("truncated register array");
    if (d < 0 || std::uint64_t(d) >= gate_count || q < 0 ||
        std::uint64_t(q) >= gate_count ||
        nl.gate(q).op != GateOp::RegOut)
      return corrupt("register " + std::to_string(i) + " pins are invalid");
    nl.registers().push_back({d, q});
  }

  const std::uint64_t input_groups = r.take_u64();
  if (r.failed() || !r.count_fits(input_groups, 8))
    return corrupt("input group count exceeds the file");
  for (std::uint64_t g = 0; g < input_groups; ++g) {
    std::vector<NetId> group;
    if (!read_net_group(r, std::size_t(gate_count), group))
      return corrupt("input group " + std::to_string(g) + " is invalid");
    nl.inputs().push_back(std::move(group));
  }

  const std::uint64_t output_groups = r.take_u64();
  if (r.failed() || !r.count_fits(output_groups, 8))
    return corrupt("output group count exceeds the file");
  for (std::uint64_t g = 0; g < output_groups; ++g) {
    std::vector<NetId> group;
    if (!read_net_group(r, std::size_t(gate_count), group))
      return corrupt("output group " + std::to_string(g) + " is invalid");
    nl.outputs().push_back(std::move(group));
  }
  return nl;
}

void write_schedule(ByteWriter& w, const CompiledSchedule& s) {
  const std::size_t n = s.size();
  w.put_u64(n);
  w.put_u64(s.logic_gates());
  w.put_array(std::span(s.ops(), n));
  w.put_array(std::span(s.operand_a(), n));
  w.put_array(std::span(s.operand_b(), n));
  // CSR: offsets then adjacency. The offsets array length is n+1 and
  // its last entry is the adjacency length, so no separate count.
  std::size_t edges = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto f = s.fanout(NetId(i));
    w.put_i32(std::int32_t(edges));
    edges += f.size();
  }
  w.put_i32(std::int32_t(edges));
  for (std::size_t i = 0; i < n; ++i) w.put_array(s.fanout(NetId(i)));
  for (std::size_t i = 0; i < n; ++i) w.put_i32(s.register_of(NetId(i)));
  for (std::size_t i = 0; i < n; ++i)
    w.put_u8(s.is_observed_output(NetId(i)) ? 1 : 0);
}

Expected<CompiledSchedule::RestoreParts> read_schedule(ByteReader& r,
                                                       const Netlist& nl) {
  const std::size_t n = nl.size();
  const std::uint64_t stored_n = r.take_u64();
  const std::uint64_t logic_gates = r.take_u64();
  if (r.failed()) return corrupt("truncated schedule section");
  if (stored_n != n)
    return corrupt("schedule covers " + std::to_string(stored_n) +
                   " nets but the netlist has " + std::to_string(n));
  if (logic_gates != nl.logic_gate_count())
    return corrupt("schedule logic-gate count disagrees with the netlist");

  CompiledSchedule::RestoreParts parts;
  parts.logic_gates = std::size_t(logic_gates);

  // The SoA arrays are cross-checked verbatim against the netlist: they
  // must be exactly what a fresh compile would copy out of it.
  if (!r.take_array(n, parts.op) || !r.take_array(n, parts.a) ||
      !r.take_array(n, parts.b))
    return corrupt("truncated schedule gate arrays");
  const auto& gates = nl.gates();
  for (std::size_t i = 0; i < n; ++i)
    if (parts.op[i] != gates[i].op || parts.a[i] != gates[i].a ||
        parts.b[i] != gates[i].b)
      return corrupt("schedule gate array disagrees with the netlist at net " +
                     std::to_string(i));

  // CSR offsets: monotone, starting at 0; the total edge count must be
  // exactly what the netlist's operand pins and register D pins induce.
  if (!r.take_array(n + 1, parts.fan_start))
    return corrupt("truncated fan-out offsets");
  if (!parts.fan_start.empty() && parts.fan_start[0] != 0)
    return corrupt("fan-out CSR does not start at zero");
  for (std::size_t i = 0; i < n; ++i)
    if (parts.fan_start[i + 1] < parts.fan_start[i])
      return corrupt("fan-out CSR offsets are not monotone");
  std::size_t expected_edges = 0;
  for (const Gate& g : gates) {
    if (g.a != kNoNet) ++expected_edges;
    if (g.b != kNoNet) ++expected_edges;
  }
  expected_edges += nl.registers().size();
  const std::size_t edges = n == 0 ? 0 : std::size_t(parts.fan_start[n]);
  if (edges != expected_edges)
    return corrupt("fan-out CSR holds " + std::to_string(edges) +
                   " edges but the netlist induces " +
                   std::to_string(expected_edges));
  // Per-net degree check against the netlist's pin counts.
  std::vector<std::int32_t> degree(n, 0);
  for (const Gate& g : gates) {
    if (g.a != kNoNet) ++degree[std::size_t(g.a)];
    if (g.b != kNoNet) ++degree[std::size_t(g.b)];
  }
  for (const RegBit& rb : nl.registers()) ++degree[std::size_t(rb.d)];
  for (std::size_t i = 0; i < n; ++i)
    if (parts.fan_start[i + 1] - parts.fan_start[i] != degree[i])
      return corrupt("fan-out degree disagrees with the netlist at net " +
                     std::to_string(i));

  if (!r.take_array(edges, parts.fan))
    return corrupt("truncated fan-out adjacency");
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = std::size_t(parts.fan_start[i]);
    const std::size_t hi = std::size_t(parts.fan_start[i + 1]);
    for (std::size_t e = lo; e < hi; ++e) {
      const NetId dst = parts.fan[e];
      if (dst < 0 || std::size_t(dst) >= n)
        return corrupt("fan-out target out of range at net " +
                       std::to_string(i));
      // Ascending target order is what collect_cone's determinism and
      // the compiler's counting sort guarantee; enforce it on load.
      if (e > lo && parts.fan[e - 1] > dst)
        return corrupt("fan-out adjacency unsorted at net " +
                       std::to_string(i));
    }
  }

  // register_of and output marks are fully derivable — validate them
  // semantically instead of just bounds-checking.
  if (!r.take_array(n, parts.reg_of) || !r.take_array(n, parts.is_output))
    return corrupt("truncated register/output maps");
  std::vector<std::int32_t> expect_reg(n, -1);
  const auto& regs = nl.registers();
  for (std::size_t rr = 0; rr < regs.size(); ++rr)
    expect_reg[std::size_t(regs[rr].q)] = std::int32_t(rr);
  std::vector<std::uint8_t> expect_out(n, 0);
  for (const auto& group : nl.outputs())
    for (const NetId o : group) expect_out[std::size_t(o)] = 1;
  for (std::size_t i = 0; i < n; ++i)
    if (parts.reg_of[i] != expect_reg[i] || parts.is_output[i] != expect_out[i])
      return corrupt("register/output map disagrees with the netlist at net " +
                     std::to_string(i));
  return parts;
}

void write_trace(ByteWriter& w, const GoodTrace& t) {
  w.put_u64(t.words_per_cycle);
  w.put_u64(t.cycles);
  w.put_array(t.bits);
}

Expected<GoodTrace> read_trace(ByteReader& r, std::size_t nets,
                               std::size_t cycles) {
  GoodTrace t;
  t.words_per_cycle = std::size_t(r.take_u64());
  t.cycles = std::size_t(r.take_u64());
  if (r.failed()) return corrupt("truncated trace header");
  if (t.words_per_cycle != (nets + 63) / 64)
    return corrupt("trace row width does not match the netlist");
  if (t.cycles != cycles)
    return corrupt("trace covers " + std::to_string(t.cycles) +
                   " cycles, expected " + std::to_string(cycles));
  // The cycle count comes from the file: bound it by the bytes left
  // before multiplying.
  if (!r.count_fits(t.cycles, 8 * t.words_per_cycle) ||
      !r.take_array(t.words_per_cycle * t.cycles, t.bits))
    return corrupt("trace bits exceed the file");
  return t;
}

} // namespace fdbist::gate
