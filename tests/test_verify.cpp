// The differential verification subsystem verified against itself:
// generators are deterministic, the oracle is green on clean builds and
// red on deliberately mutated kernels, the minimizer shrinks failing
// cases to a handful of gates, and the corpus round-trips reproducers
// exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "gate/lower.hpp"
#include "rtl/builder.hpp"
#include "tpg/lfsr.hpp"
#include "verify/corpus.hpp"
#include "verify/fuzz.hpp"
#include "verify/minimize.hpp"
#include "verify/oracle.hpp"

namespace fdbist::verify {
namespace {

class VerifyTest : public ::testing::Test {
protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fdbist_verify_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }
  std::string path(const char* name) const { return (dir_ / name).string(); }

private:
  std::filesystem::path dir_;
};

TEST(VerifyRand, CasesAreDeterministicFunctionsOfTheSeed) {
  const std::uint64_t seed = common::test_seed(101);
  const RtlCase a = random_rtl_case(seed);
  const RtlCase b = random_rtl_case(seed);
  ASSERT_EQ(a.ops.size(), b.ops.size()) << common::seed_note(seed);
  EXPECT_EQ(a.stimulus, b.stimulus) << common::seed_note(seed);
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].kind, b.ops[i].kind) << common::seed_note(seed);
    EXPECT_EQ(a.ops[i].a, b.ops[i].a) << common::seed_note(seed);
    EXPECT_EQ(a.ops[i].cval, b.ops[i].cval) << common::seed_note(seed);
  }
  const FilterCase fa = random_filter_case(seed);
  const FilterCase fb = random_filter_case(seed);
  EXPECT_EQ(fa.coefs, fb.coefs) << common::seed_note(seed);
  EXPECT_EQ(fa.fault_indices, fb.fault_indices) << common::seed_note(seed);
}

TEST(VerifyRand, BuildGraphIsTotalOnMangledSpecs) {
  // The minimizer mangles specs arbitrarily; build_graph must still
  // produce a valid graph (clamped widths, re-derived formats).
  const std::uint64_t seed = common::test_seed(102);
  RtlCase c = random_rtl_case(seed, 20, 10);
  for (OpSpec& op : c.ops) {
    op.width = -5;        // below the clamp floor
    op.frac_delta = 100;  // beyond the resize clamp
    op.shift = -100;
  }
  const rtl::Graph g = build_graph(c);
  EXPECT_GT(g.size(), 0u) << common::seed_note(seed);
  EXPECT_FALSE(check_rtl_case(c).failed) << common::seed_note(seed);
}

TEST(VerifyOracle, GreenOnCleanRtlCases) {
  for (std::uint64_t i = 0; i < 25; ++i) {
    const std::uint64_t seed = common::test_seed(200 + i);
    const Finding f = check_rtl_case(random_rtl_case(seed));
    EXPECT_FALSE(f.failed) << f.detail << "; " << common::seed_note(seed);
  }
}

TEST(VerifyOracle, GreenOnCleanFilterCases) {
  for (std::uint64_t i = 0; i < 6; ++i) {
    const std::uint64_t seed = common::test_seed(300 + i);
    const Finding f = check_filter_case(random_filter_case(seed));
    EXPECT_FALSE(f.failed) << f.detail << "; " << common::seed_note(seed);
  }
}

TEST(VerifyOracle, GateMutationFlipsExactlyOneGate) {
  const auto g = build_graph(random_rtl_case(common::test_seed(400)));
  const auto low = gate::lower(g);
  gate::Netlist mutant = low.netlist;
  ASSERT_TRUE(apply_gate_mutation(mutant, 3));
  ASSERT_EQ(mutant.size(), low.netlist.size());
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < mutant.size(); ++i) {
    const auto id = static_cast<gate::NetId>(i);
    if (mutant.gate(id).op != low.netlist.gate(id).op) ++diffs;
    EXPECT_EQ(mutant.gate(id).a, low.netlist.gate(id).a);
    EXPECT_EQ(mutant.gate(id).b, low.netlist.gate(id).b);
  }
  EXPECT_EQ(diffs, 1u);
  EXPECT_EQ(mutant.registers().size(), low.netlist.registers().size());
}

TEST(VerifyOracle, StatsInvariantsRejectTamperedResults) {
  const FilterCase c = random_filter_case(common::test_seed(401));
  const auto d = build_filter(c);
  const auto low = gate::lower(d.graph);
  const auto stim = filter_stimulus(c);
  const auto universe = fault::order_for_simulation(
      fault::enumerate_adder_faults(low), low.netlist, d.graph);
  const auto faults = select_faults(c.fault_indices, universe);
  ASSERT_FALSE(faults.empty());

  fault::FaultSimOptions opt;
  opt.num_threads = 1;
  opt.engine = fault::FaultSimEngine::Compiled;
  auto r = simulate_faults(low.netlist, stim, faults, opt);
  EXPECT_FALSE(
      check_stats_invariants(r, opt.engine, faults.size(), stim.size())
          .failed);

  auto tampered = r;
  tampered.detected += 1; // count no longer matches the verdict array
  EXPECT_TRUE(check_stats_invariants(tampered, opt.engine, faults.size(),
                                     stim.size())
                  .failed);
  tampered = r;
  tampered.stats.gates_evaluated = tampered.stats.gates_full_sweep + 1;
  EXPECT_TRUE(check_stats_invariants(tampered, opt.engine, faults.size(),
                                     stim.size())
                  .failed);
  // A scratch run records the good trace once over the full budget;
  // recording it again for the 128-vector stage must be flagged.
  EXPECT_EQ(r.stats.good_trace_cycles, stim.size());
  tampered = r;
  tampered.stats.good_trace_cycles += std::min<std::size_t>(128, stim.size());
  EXPECT_TRUE(check_stats_invariants(tampered, opt.engine, faults.size(),
                                     stim.size())
                  .failed);
  // Asking for the wrong engine must also be flagged.
  EXPECT_TRUE(check_stats_invariants(r, fault::FaultSimEngine::FullSweep,
                                     faults.size(), stim.size())
                  .failed);

  // FullSweep and signature runs never split a batch into time
  // segments, so they step nothing beyond cycles_simulated.
  opt.engine = fault::FaultSimEngine::FullSweep;
  auto full = simulate_faults(low.netlist, stim, faults, opt);
  EXPECT_EQ(full.stats.segment_overhead_cycles, 0u);
  EXPECT_FALSE(
      check_stats_invariants(full, opt.engine, faults.size(), stim.size())
          .failed);
  full.stats.segment_overhead_cycles = 1;
  EXPECT_TRUE(
      check_stats_invariants(full, opt.engine, faults.size(), stim.size())
          .failed);
  opt.engine = fault::FaultSimEngine::Compiled;
  opt.signature.width = 8;
  opt.signature.taps = tpg::default_polynomial(8).low_terms;
  auto sig = simulate_faults(low.netlist, stim, faults, opt);
  EXPECT_FALSE(
      check_stats_invariants(sig, opt.engine, faults.size(), stim.size())
          .failed);
  sig.stats.segment_overhead_cycles = 1;
  EXPECT_TRUE(
      check_stats_invariants(sig, opt.engine, faults.size(), stim.size())
          .failed);
}

TEST(VerifyMinimize, DropOpsRemapsOperandsThroughRemovedOps) {
  RtlCase c;
  c.input_width = 4;
  // op0 = input + input; op1 = reg(op0); op2 = op1 + op0
  c.ops.push_back({rtl::OpKind::Add, 0, 0, 6, 0, 0, 0});
  c.ops.push_back({rtl::OpKind::Reg, 1, 0, 0, 0, 0, 0});
  c.ops.push_back({rtl::OpKind::Add, 2, 1, 8, 0, 0, 0});
  c.stimulus = {1, 2, 3};

  // Drop the register; its user must follow through to op0.
  const RtlCase dropped = drop_ops(c, {0, 2});
  ASSERT_EQ(dropped.ops.size(), 2u);
  EXPECT_EQ(dropped.ops[1].a, 1u); // was op1 (pool 2) -> now op0 (pool 1)
  EXPECT_EQ(dropped.ops[1].b, 1u);
  EXPECT_FALSE(check_rtl_case(dropped).failed);

  // Drop everything: users collapse to the primary input.
  const RtlCase none = drop_ops(c, {});
  EXPECT_TRUE(none.ops.empty());
  EXPECT_FALSE(check_rtl_case(none).failed);
}

TEST(VerifyMinimize, ShrinksMutatedCaseToAFewGates) {
  // The acceptance self-test: a deliberate kernel mutation must be
  // caught by the oracle and delta-debugged to <= 10 logic gates.
  // Mutate the first two-input gate: a shallow site keeps the failing
  // cone small, so the minimizer can strip everything behind it. Deep
  // sites pin a long netlist prefix and legitimately minimize larger.
  const std::uint64_t base = common::test_seed(500);
  bool caught_any = false;
  for (std::uint64_t i = 0; i < 8 && !caught_any; ++i) {
    RtlCase c = random_rtl_case(common::mix_seed(base + i));
    c.mutate = 0;
    const Finding f = check_rtl_case(c);
    const std::string category = finding_category(f.detail);
    // Only a genuine divergence shrinks freely; a "mutation escaped"
    // observability finding pins the whole netlist prefix up to the
    // mutated gate and is exercised by other tests.
    if (!f.failed || category == "mutation escaped") continue;
    caught_any = true;
    MinimizeStats stats;
    const RtlCase min = minimize_rtl_case(
        c,
        [&](const RtlCase& t) {
          const Finding r = check_rtl_case(t);
          return r.failed && finding_category(r.detail) == category;
        },
        &stats);
    const auto low = gate::lower(build_graph(min));
    EXPECT_LE(low.netlist.logic_gate_count(), 10u)
        << common::seed_note(base) << ", predicate calls "
        << stats.predicate_calls;
    EXPECT_TRUE(check_rtl_case(min).failed);
    EXPECT_LE(min.stimulus.size(), c.stimulus.size());
  }
  EXPECT_TRUE(caught_any)
      << "no mutation diverged in 8 attempts; " << common::seed_note(base);
}

TEST(VerifyCorpus, RtlCaseRoundTripsExactly) {
  RtlCase c = random_rtl_case(common::test_seed(600));
  c.mutate = 4;
  CorpusCase cc{CaseKind::Rtl, "detail text: with punctuation", c, {}};
  auto parsed = parse_case(format_case(cc));
  ASSERT_TRUE(parsed) << parsed.error().to_string();
  EXPECT_EQ(parsed->kind, CaseKind::Rtl);
  EXPECT_EQ(parsed->detail, cc.detail);
  EXPECT_EQ(parsed->rtl.input_width, c.input_width);
  EXPECT_EQ(parsed->rtl.mutate, c.mutate);
  EXPECT_EQ(parsed->rtl.stimulus, c.stimulus);
  ASSERT_EQ(parsed->rtl.ops.size(), c.ops.size());
  for (std::size_t i = 0; i < c.ops.size(); ++i) {
    EXPECT_EQ(parsed->rtl.ops[i].kind, c.ops[i].kind) << i;
    EXPECT_EQ(parsed->rtl.ops[i].a, c.ops[i].a) << i;
    EXPECT_EQ(parsed->rtl.ops[i].b, c.ops[i].b) << i;
    EXPECT_EQ(parsed->rtl.ops[i].width, c.ops[i].width) << i;
    EXPECT_EQ(parsed->rtl.ops[i].frac_delta, c.ops[i].frac_delta) << i;
    EXPECT_EQ(parsed->rtl.ops[i].shift, c.ops[i].shift) << i;
    EXPECT_EQ(parsed->rtl.ops[i].cval, c.ops[i].cval) << i;
  }
}

TEST(VerifyCorpus, FilterCaseCoefficientsRoundTripBitExactly) {
  const FilterCase c = random_filter_case(common::test_seed(601));
  CorpusCase cc{CaseKind::Filter, "", {}, c};
  auto parsed = parse_case(format_case(cc));
  ASSERT_TRUE(parsed) << parsed.error().to_string();
  // Hexfloat serialization: bit-exact doubles, not approximations.
  EXPECT_EQ(parsed->filter.coefs, c.coefs);
  EXPECT_EQ(parsed->filter.fault_indices, c.fault_indices);
  EXPECT_EQ(parsed->filter.generator, c.generator);
  EXPECT_EQ(parsed->filter.vectors, c.vectors);
}

TEST(VerifyCorpus, FilterCaseFamilyAndFactorRoundTrip) {
  // v2 records the design family and decimation factor; pin a decimator
  // case so both fields are exercised away from their defaults.
  const FilterCase c = random_filter_case(common::test_seed(603), 2);
  ASSERT_EQ(c.family, 2);
  CorpusCase cc{CaseKind::Filter, "", {}, c};
  const std::string text = format_case(cc);
  EXPECT_EQ(text.rfind("fdbist-corpus v2\n", 0), 0u)
      << "writers must always emit v2";
  auto parsed = parse_case(text);
  ASSERT_TRUE(parsed) << parsed.error().to_string();
  EXPECT_EQ(parsed->filter.family, c.family);
  EXPECT_EQ(parsed->filter.factor, c.factor);
  EXPECT_EQ(parsed->filter.coefs, c.coefs);
  EXPECT_EQ(filter_family(parsed->filter),
            rtl::DesignFamily::PolyphaseDecimator);
}

TEST(VerifyCorpus, VersionOneFilterCaseReplaysAsFir) {
  // A v1 corpus case predates the family dimension and can only
  // describe a FIR, so it still loads — defaulting family 0 / factor 2
  // — unlike v1 checkpoints and partials, which are refused.
  const char* v1 =
      "fdbist-corpus v1\nkind filter\ndetail legacy case\n"
      "input_width 12\ncoef_width 15\ngenerator 1\nvectors 64\nmutate -1\n"
      "coefs 2\n  0x1p-2\n  -0x1p-3\nfault_indices 1\n  5\nend\n";
  auto parsed = parse_case(v1);
  ASSERT_TRUE(parsed) << parsed.error().to_string();
  EXPECT_EQ(parsed->filter.family, 0);
  EXPECT_EQ(parsed->filter.factor, 2);
  ASSERT_EQ(parsed->filter.coefs.size(), 2u);
  EXPECT_EQ(parsed->filter.coefs[0], 0.25);
  EXPECT_EQ(parsed->filter.coefs[1], -0.125);
  EXPECT_EQ(filter_family(parsed->filter), rtl::DesignFamily::Fir);
}

TEST(VerifyCorpus, OutOfRangeFamilyIsCorrupt) {
  const FilterCase c = random_filter_case(common::test_seed(604));
  CorpusCase cc{CaseKind::Filter, "", {}, c};
  std::string text = format_case(cc);
  const auto pos = text.find("\nfamily ");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 8] = '7'; // family is a single digit in 0..2
  auto parsed = parse_case(text);
  ASSERT_FALSE(parsed);
  EXPECT_EQ(parsed.error().code, ErrorCode::CorruptCheckpoint);
  EXPECT_NE(parsed.error().message.find("family"), std::string::npos);
}

TEST(VerifyCorpus, MalformedTextIsRefusedWithCorruptError) {
  for (const char* bad :
       {"", "not-a-corpus v1\nkind rtl\n", "fdbist-corpus v2\n",
        "fdbist-corpus v1\nkind alien\n",
        "fdbist-corpus v1\nkind rtl\ndetail x\ninput_width 8\nmutate -1\n"
        "ops 2\n  add 0 0 4 0 0 0\n", // truncated op list
        "fdbist-corpus v1\nkind rtl\ndetail x\ninput_width 8\nmutate -1\n"
        "ops 0\nstimulus 1\n  5\n"}) { // missing trailer
    auto parsed = parse_case(bad);
    ASSERT_FALSE(parsed) << "accepted: " << bad;
    EXPECT_EQ(parsed.error().code, ErrorCode::CorruptCheckpoint);
  }
}

TEST_F(VerifyTest, SaveLoadListRoundTripOnDisk) {
  const RtlCase c = random_rtl_case(common::test_seed(602), 10, 20);
  CorpusCase cc{CaseKind::Rtl, "x", c, {}};
  const std::string file = path("rtl-1.case");
  auto saved = save_case(file, cc);
  ASSERT_TRUE(saved) << saved.error().to_string();
  auto loaded = load_case(file);
  ASSERT_TRUE(loaded) << loaded.error().to_string();
  EXPECT_EQ(loaded->rtl.stimulus, c.stimulus);

  auto files = list_corpus(dir());
  ASSERT_TRUE(files);
  ASSERT_EQ(files->size(), 1u);
  EXPECT_EQ((*files)[0], file);
  auto missing = list_corpus(path("missing-subdir"));
  ASSERT_TRUE(missing); // a missing directory is an empty corpus, not Io
  EXPECT_TRUE(missing->empty());
}

TEST_F(VerifyTest, FuzzRunIsGreenAndDeterministic) {
  FuzzOptions opt;
  opt.seed = common::test_seed(700);
  opt.cases = 24;
  const FuzzReport a = run_fuzz(opt);
  EXPECT_TRUE(a.findings.empty())
      << a.findings.front().detail << "; " << common::seed_note(opt.seed);
  EXPECT_EQ(a.cases_run, opt.cases);
  const FuzzReport b = run_fuzz(opt);
  EXPECT_EQ(b.findings.size(), a.findings.size());
}

// The corpus directory doubles as the scratch directory of the
// mixed-engine resume property, so a missing one must be created before
// it writes there. Seed 1 reaches that property within its first 8
// cases.
TEST_F(VerifyTest, FuzzIntoMissingCorpusDirIsClean) {
  FuzzOptions opt;
  opt.seed = 1;
  opt.cases = 8;
  opt.family = static_cast<std::int32_t>(rtl::DesignFamily::Fir);
  opt.corpus_dir = path("missing/corpus");
  const FuzzReport r = run_fuzz(opt);
  EXPECT_TRUE(r.findings.empty()) << r.findings.front().detail;
  EXPECT_TRUE(r.io_errors.empty()) << r.io_errors.front();
  EXPECT_TRUE(std::filesystem::is_directory(opt.corpus_dir));
}

// Runs that share a corpus directory (or, without one, the system temp
// directory) must not see each other: every mixed-engine resume check
// writes, resumes and removes a checkpoint of its own. Four concurrent
// runs whose seeds each reach that property a dozen times must all come
// back clean, exactly as each one does alone.
TEST_F(VerifyTest, ConcurrentRunsSharingACorpusDirAreClean) {
  std::vector<FuzzReport> reports(4);
  std::vector<std::thread> runs;
  for (std::size_t t = 0; t < reports.size(); ++t)
    runs.emplace_back([&reports, t, corpus = dir()] {
      FuzzOptions opt;
      opt.seed = 1 + t;
      opt.cases = 400;
      opt.minimize = false;
      opt.family = static_cast<std::int32_t>(rtl::DesignFamily::Fir);
      opt.corpus_dir = corpus;
      reports[t] = run_fuzz(opt);
    });
  for (std::thread& run : runs) run.join();
  for (std::size_t t = 0; t < reports.size(); ++t) {
    const FuzzReport& r = reports[t];
    EXPECT_EQ(r.cases_run, 400u) << "seed " << 1 + t;
    EXPECT_TRUE(r.findings.empty())
        << "seed " << 1 + t << ": " << r.findings.size()
        << " findings, first: " << r.findings.front().detail;
    EXPECT_TRUE(r.io_errors.empty())
        << "seed " << 1 + t << ": " << r.io_errors.front();
  }
}

TEST_F(VerifyTest, MutationSelfTestIsCaughtMinimizedAndReplayable) {
  FuzzOptions opt;
  opt.seed = 7; // fixed: the self-test must fire regardless of override
  opt.cases = 4;
  opt.mutate = 0;
  opt.corpus_dir = dir();
  const FuzzReport report = run_fuzz(opt);
  ASSERT_FALSE(report.findings.empty());
  bool rtl_minimized = false;
  for (const auto& f : report.findings) {
    EXPECT_FALSE(f.corpus_path.empty());
    if (f.kind == CaseKind::Rtl && f.minimized_logic_gates > 0) {
      rtl_minimized = true;
      EXPECT_LE(f.minimized_logic_gates, 10u) << f.detail;
    }
  }
  EXPECT_TRUE(rtl_minimized);

  // Replay: the saved reproducers must fail again from disk alone.
  FuzzOptions replay;
  replay.seed = 7;
  replay.cases = 0;
  replay.corpus_dir = dir();
  const FuzzReport again = run_fuzz(replay);
  EXPECT_EQ(again.corpus_replayed, report.findings.size());
  EXPECT_EQ(again.findings.size(), report.findings.size());
  for (const auto& f : again.findings) EXPECT_TRUE(f.from_corpus);
}

TEST(VerifyFuzz, FindingCategoryTakesTextBeforeColon) {
  EXPECT_EQ(finding_category("rtl-vs-gate: node 3"), "rtl-vs-gate");
  EXPECT_EQ(finding_category("no colon"), "no colon");
}

} // namespace
} // namespace fdbist::verify
