#include "rtl/dot_export.hpp"

#include <ostream>
#include <sstream>

namespace fdbist::rtl {

namespace {

const char* node_shape(OpKind k) {
  switch (k) {
  case OpKind::Input: return "invhouse";
  case OpKind::Output: return "house";
  case OpKind::Reg: return "box";
  case OpKind::Add:
  case OpKind::Sub: return "circle";
  case OpKind::Const: return "plaintext";
  default: return "ellipse";
  }
}

} // namespace

void write_dot(std::ostream& os, const Graph& g,
               const std::string& graph_name) {
  os << "digraph \"" << graph_name << "\" {\n";
  os << "  rankdir=LR;\n  node [fontsize=10];\n";
  for (std::size_t i = 0; i < g.size(); ++i) {
    const auto id = static_cast<NodeId>(i);
    const Node& n = g.node(id);
    os << "  n" << i << " [shape=" << node_shape(n.kind) << ", label=\"";
    if (!n.name.empty())
      os << n.name << "\\n";
    os << op_name(n.kind);
    if (n.kind == OpKind::Scale) os << " 2^-" << n.shift;
    os << "\\n" << n.fmt.to_string();
    os << "\"];\n";
  }
  for (std::size_t i = 0; i < g.size(); ++i) {
    const Node& n = g.node(static_cast<NodeId>(i));
    if (n.a != kNoNode) os << "  n" << n.a << " -> n" << i << ";\n";
    if (n.b != kNoNode)
      os << "  n" << n.b << " -> n" << i << " [style=dashed];\n";
  }
  os << "}\n";
}

std::string to_dot(const Graph& g, const std::string& graph_name) {
  std::ostringstream os;
  write_dot(os, g, graph_name);
  return os.str();
}

} // namespace fdbist::rtl
