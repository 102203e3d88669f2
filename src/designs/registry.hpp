// Named-design registry: the one front door to the designs.
//
// Every workload the pipeline can target — the paper's three Table 1
// FIRs (LP, BP, HP) plus the added IIR biquad cascade and polyphase
// decimator reference designs — is registered here under a stable name,
// and make_design is the only way the CLI, the bench drivers, the
// examples and the test suites build one. Entries carry the design
// family; the family tag then rides through checkpoints, the corpus
// format, and the verify oracle's per-family budgets.
#pragma once

#include <string>
#include <vector>

#include "rtl/builder.hpp"

namespace fdbist::designs {

struct RegistryEntry {
  std::string name;
  rtl::DesignFamily family = rtl::DesignFamily::Fir;
  std::string description;
};

/// All registered designs, in a fixed, deterministic order
/// (LP, BP, HP, IIR4, DEC2).
const std::vector<RegistryEntry>& design_registry();

/// True when `name` is registered.
bool has_design(const std::string& name);

/// Build a registered design by name. Throws precondition_error on an
/// unknown name (the message lists the registered names).
rtl::FilterDesign make_design(const std::string& name);

} // namespace fdbist::designs
