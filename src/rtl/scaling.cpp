#include "rtl/scaling.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace fdbist::rtl {

namespace {

constexpr int kMinWidth = 2;  // narrowest signal we will emit
constexpr int kMaxWidth = 62; // int64 simulation headroom

} // namespace

int width_for_bound(double bound, int frac) {
  if (bound <= 0.0) return kMinWidth;
  // Smallest p with bound < 2^p (bound == 2^p rounds up: conservative).
  const int p = static_cast<int>(std::floor(std::log2(bound))) + 1;
  const int width = frac + p + 1; // +1 sign bit
  return std::clamp(width, kMinWidth, kMaxWidth);
}

std::vector<NodeLinearInfo> assign_widths(Graph& g,
                                          const std::vector<NodeId>& fixed) {
  auto info = analyze_linear(g);
  std::vector<char> is_fixed(g.size(), 0);
  for (const NodeId id : fixed) {
    FDBIST_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < g.size(),
                   "fixed node id out of range");
    is_fixed[static_cast<std::size_t>(id)] = 1;
  }

  for (std::size_t i = 0; i < g.size(); ++i) {
    Node& nd = g.mutable_node(static_cast<NodeId>(i));
    if (is_fixed[i]) continue;
    switch (nd.kind) {
    case OpKind::Input:
    case OpKind::Const:
      break; // externally specified
    case OpKind::Reg:
    case OpKind::Output:
      nd.fmt = g.node(nd.a).fmt; // follow (possibly shrunk) operand
      break;
    case OpKind::Scale: {
      const auto& src = g.node(nd.a).fmt;
      nd.fmt = fx::Format{src.width, src.frac + nd.shift};
      break;
    }
    case OpKind::Add:
    case OpKind::Sub:
    case OpKind::Resize:
      nd.fmt.width = width_for_bound(info[i].l1_bound, nd.fmt.frac);
      break;
    }
    FDBIST_ASSERT(nd.fmt.valid(), "scaling produced an invalid format");
  }
  return info;
}

} // namespace fdbist::rtl
