// Linear-feedback shift registers: Type 1 (external XOR tree, Fibonacci)
// and Type 2 (embedded XORs, Galois), both shift directions.
#pragma once

#include <cstdint>
#include <string>

#include "tpg/generator.hpp"

namespace fdbist::tpg {

enum class ShiftDirection {
  LsbToMsb, ///< new bit enters at the LSB, bits move toward the MSB
  MsbToLsb, ///< new bit enters at the MSB, bits move toward the LSB
};

/// A primitive polynomial over GF(2) of degree `degree`, stored as the
/// bitmask of coefficients x^0..x^(degree-1); x^degree is implicit.
struct Polynomial {
  int degree = 0;
  std::uint32_t low_terms = 0;

  /// Parse the common hex convention that includes the x^degree bit, e.g.
  /// 0x12B9 for x^12+x^9+x^7+x^5+x^4+x^3+1 (the paper's Type 2 example).
  static Polynomial from_hex_with_top(std::uint32_t bits);
};

/// A default primitive polynomial for each supported degree (2..31).
Polynomial default_polynomial(int degree);

/// Type 1 LFSR: feedback bit is the XOR of the tapped state bits and is
/// shifted in; all XOR logic is external to the register.
class Lfsr1 final : public Generator {
public:
  Lfsr1(int width, std::uint32_t seed = 1,
        ShiftDirection dir = ShiftDirection::LsbToMsb);
  Lfsr1(Polynomial poly, std::uint32_t seed, ShiftDirection dir);

  std::int64_t next_raw() override;
  void reset() override;
  int width() const override { return poly_.degree; }
  std::string name() const override { return "LFSR-1"; }

  /// Advance one shift and return just the feedback bit (used by the
  /// maximum-variance generator, which consumes one bit per test).
  int next_bit();
  std::uint32_t state() const { return state_; }

private:
  void shift_once();

  Polynomial poly_;
  std::uint32_t seed_ = 1;
  std::uint32_t state_ = 1;
  ShiftDirection dir_ = ShiftDirection::LsbToMsb;
};

/// Type 2 LFSR: XOR gates embedded between register stages (Galois form).
class Lfsr2 final : public Generator {
public:
  Lfsr2(int width, std::uint32_t seed = 1,
        ShiftDirection dir = ShiftDirection::LsbToMsb);
  Lfsr2(Polynomial poly, std::uint32_t seed, ShiftDirection dir);

  std::int64_t next_raw() override;
  void reset() override;
  int width() const override { return poly_.degree; }
  std::string name() const override { return "LFSR-2"; }
  std::uint32_t state() const { return state_; }

private:
  Polynomial poly_;
  std::uint32_t seed_ = 1;
  std::uint32_t state_ = 1;
  ShiftDirection dir_ = ShiftDirection::LsbToMsb;
};

} // namespace fdbist::tpg
