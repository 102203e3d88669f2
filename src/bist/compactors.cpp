#include "bist/compactors.hpp"

#include <bit>

#include "common/bits.hpp"
#include "common/check.hpp"

namespace fdbist::bist {

OnesCountCompactor::OnesCountCompactor(int word_width) : width_(word_width) {
  FDBIST_REQUIRE(word_width >= 1 && word_width <= 63,
                 "word width out of range");
}

void OnesCountCompactor::absorb(std::uint64_t word) {
  count_ += static_cast<std::uint64_t>(
      std::popcount(word & low_mask(width_)));
}

TransitionCountCompactor::TransitionCountCompactor(int word_width)
    : width_(word_width) {
  FDBIST_REQUIRE(word_width >= 1 && word_width <= 63,
                 "word width out of range");
}

void TransitionCountCompactor::absorb(std::uint64_t word) {
  word &= low_mask(width_);
  if (has_prev_)
    count_ += static_cast<std::uint64_t>(std::popcount(word ^ prev_));
  prev_ = word;
  has_prev_ = true;
}

void TransitionCountCompactor::reset() {
  count_ = 0;
  prev_ = 0;
  has_prev_ = false;
}

} // namespace fdbist::bist
