// Differential testing: the word-parallel fault simulator must agree
// with the serial reference, fault for fault and cycle for cycle.
#include <ostream>
#include <gtest/gtest.h>

#include "fault/serial.hpp"
#include "rtl/fir_builder.hpp"
#include "tpg/generators.hpp"

namespace fdbist::fault {
namespace {

struct Case {
  std::vector<double> coefs;
  tpg::GeneratorKind gen;
  std::size_t vectors;
};

// Names the case in test listings. gtest would otherwise print the raw
// bytes of the struct, coefficient vector's heap addresses included, and
// the ctest name of each case would change from run to run.
void PrintTo(const Case& c, std::ostream* os) {
  *os << tpg::kind_name(c.gen) << ' ' << c.coefs.size() << " taps "
      << c.vectors << " vectors";
}

class SerialVsParallel : public ::testing::TestWithParam<Case> {};

TEST_P(SerialVsParallel, IdenticalDetectionCycles) {
  const auto& c = GetParam();
  const auto d = rtl::build_fir(c.coefs, {}, "diff");
  const auto low = gate::lower(d.graph);
  const auto faults = order_for_simulation(enumerate_adder_faults(low),
                                           low.netlist, d.graph);
  auto gen = tpg::make_generator(c.gen, 12);
  const auto stim = gen->generate_raw(c.vectors);

  const auto fast = simulate_faults(low.netlist, stim, faults);
  const auto slow = simulate_faults_serial(low.netlist, stim, faults);

  ASSERT_EQ(fast.detect_cycle.size(), slow.detect_cycle.size());
  EXPECT_EQ(fast.detected, slow.detected);
  for (std::size_t i = 0; i < faults.size(); ++i)
    ASSERT_EQ(fast.detect_cycle[i], slow.detect_cycle[i])
        << "fault " << i << ": "
        << describe(faults[i], low.netlist, d.graph);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SerialVsParallel,
    ::testing::Values(
        Case{{0.3, -0.42, 0.11}, tpg::GeneratorKind::LfsrD, 96},
        Case{{0.22, -0.31, 0.085, -0.05}, tpg::GeneratorKind::Lfsr1, 128},
        Case{{0.4, 0.25, -0.125}, tpg::GeneratorKind::LfsrM, 96},
        Case{{-0.5, 0.25}, tpg::GeneratorKind::Ramp, 160},
        Case{{0.125, -0.25, 0.0625, 0.03125}, tpg::GeneratorKind::Lfsr2,
             96}));

TEST(Serial, DetectCycleOfMatchesBatch) {
  const auto d = rtl::build_fir({0.3, -0.42, 0.11}, {}, "t");
  const auto low = gate::lower(d.graph);
  const auto faults = enumerate_adder_faults(low);
  tpg::WhiteUniformSource src(12, 3);
  const auto stim = src.generate_raw(64);
  const auto batch = simulate_faults_serial(low.netlist, stim, faults);
  for (std::size_t i = 0; i < faults.size(); i += 11)
    EXPECT_EQ(detect_cycle_of(low.netlist, stim, faults[i]),
              batch.detect_cycle[i]);
}

TEST(Serial, EmptyStimulusRejected) {
  const auto d = rtl::build_fir({0.5}, {}, "t");
  const auto low = gate::lower(d.graph);
  const auto faults = enumerate_adder_faults(low);
  EXPECT_THROW(simulate_faults_serial(low.netlist, {}, faults),
               precondition_error);
}

} // namespace
} // namespace fdbist::fault
