// Response-compaction alternatives to the MISR (bist/misr.hpp): ones
// counting and transition counting, as plain counters with the MISR's
// absorb/signature/reset shape. Neither is linear over GF(2), so a
// faulty machine's count cannot be read off a difference register; each
// machine keeps its own. bench/ablation_compactors measures their
// aliasing against the MISR's.
#pragma once

#include <cstdint>

namespace fdbist::bist {

/// Ones counting: the signature is the total number of 1 bits observed.
/// Aliases whenever a fault flips equally many 0->1 and 1->0 bits.
class OnesCountCompactor {
public:
  explicit OnesCountCompactor(int word_width);
  void absorb(std::uint64_t word);
  std::uint32_t signature() const {
    return static_cast<std::uint32_t>(count_);
  }
  void reset() { count_ = 0; }

private:
  int width_;
  std::uint64_t count_ = 0;
};

/// Transition counting: the signature is the number of per-bit
/// transitions between consecutive response words.
class TransitionCountCompactor {
public:
  explicit TransitionCountCompactor(int word_width);
  void absorb(std::uint64_t word);
  std::uint32_t signature() const {
    return static_cast<std::uint32_t>(count_);
  }
  void reset();

private:
  int width_;
  std::uint64_t count_ = 0;
  std::uint64_t prev_ = 0;
  bool has_prev_ = false;
};

} // namespace fdbist::bist
