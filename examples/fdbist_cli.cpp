// fdbist_cli — command-line driver over the whole library.
//
//   fdbist_cli designs
//   fdbist_cli [--threads N] design   <lowpass|highpass|bandpass> <taps> <f1> [f2]
//   fdbist_cli [--threads N] analyze  <design>
//   fdbist_cli [--threads N] faultsim <design> <generator> <vectors>
//                            [--signature W]
//   fdbist_cli [--threads N] campaign <design> <generator> <vectors>
//                            [--signature W] [--checkpoint FILE]
//                            [--resume] [--deadline-s S]
//   fdbist_cli [--threads N] spectra  <generator> [samples]
//   fdbist_cli [--threads N] export   <design> <verilog|dot>
//   fdbist_cli fuzz [--seed N] [--cases N] [--corpus DIR]
//                   [--minimize 0|1] [--mutate K] [--family F]
//
// <design> is any name from `fdbist_cli designs` (case-insensitive:
// LP, BP, HP, IIR4, DEC2, ...), built through the design registry; an
// unknown name is a usage error (exit 2).
// --signature W routes verdicts through a width-W MISR difference
// register in the fault kernel (W in 2..31; the default primitive
// polynomial) and reports measured aliasing against the word-compare
// ground truth. Generators: lfsr1 lfsr2 lfsrd lfsrm ramp mixed —
// generated at the design's input width (the packed word for
// decimators).
// --threads N shards fault simulation across N workers (0 = one per
// hardware thread, the default; 1 = single-threaded legacy path).
// Results are bit-identical for every N.
//
// `campaign` is `faultsim` with resilience: it persists per-fault
// verdicts to --checkpoint, a killed run restarted with --resume
// continues where it stopped (final results bit-identical to an
// uninterrupted run), and --deadline-s stops workers gracefully at
// batch boundaries, reporting coverage-so-far. It runs every fault it
// has no verdict for in one fault-simulation call, the work `faultsim`
// does, and when that call returns it saves every verdict reached, a
// deadline-cut call's included.
//
// `fuzz` runs the differential verification subsystem (src/verify/):
// replay the corpus, then `--cases` fresh random cases through every
// redundant evaluation path (RTL vs gate sim, Compiled vs FullSweep
// fault engines, campaigns, property checkers). Failures are
// delta-debugged to minimal reproducers and written to --corpus.
// --mutate K injects a deliberate kernel mutation into every case (the
// oracle self-test: the run MUST end with findings and exit 4).
//
// Exit codes: 0 success, 1 runtime error, 2 bad usage, 4 fuzz
// discrepancy (the differential oracle found a mismatch). A campaign
// stopped before finishing reports *why* in its status: 3 cancellation,
// 5 deadline expiry. Both still print coverage-so-far.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include <unistd.h>

#include "analysis/compatibility.hpp"
#include "analysis/variance.hpp"
#include "bist/kit.hpp"
#include "common/check.hpp"
#include "common/parse.hpp"
#include "designs/registry.hpp"
#include "dsp/fir_design.hpp"
#include "dsp/spectrum.hpp"
#include "fault/campaign.hpp"
#include "gate/verilog.hpp"
#include "rtl/dot_export.hpp"
#include "tpg/generators.hpp"
#include "tpg/lfsr.hpp"
#include "verify/fuzz.hpp"

namespace {

using namespace fdbist;

/// Fault-simulation worker threads (0 = hardware concurrency), set by
/// the global --threads flag before command dispatch.
std::size_t g_threads = 0;

constexpr std::size_t kMaxVectors = std::numeric_limits<std::int32_t>::max();

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  fdbist_cli designs\n"
               "  fdbist_cli [--threads N] design   "
               "<lowpass|highpass|bandpass> <taps> <f1> [f2]\n"
               "  fdbist_cli [--threads N] analyze  <design>\n"
               "  fdbist_cli [--threads N] faultsim <design> <generator> "
               "<vectors>\n"
               "                           [--signature W]\n"
               "  fdbist_cli [--threads N] campaign <design> <generator> "
               "<vectors>\n"
               "                           [--signature W] "
               "[--checkpoint FILE]\n"
               "                           [--resume] [--deadline-s S]\n"
               "  fdbist_cli [--threads N] spectra  <generator> [samples]\n"
               "  fdbist_cli [--threads N] export   <design> "
               "<verilog|dot>\n"
               "  fdbist_cli fuzz [--seed N] [--cases N] [--corpus DIR]\n"
               "                  [--minimize 0|1] [--mutate K] "
               "[--family <fir|iir|decimator>]\n"
               "<design>: a registry name (`fdbist_cli designs` lists "
               "them), case-insensitive\n"
               "generators: lfsr1 lfsr2 lfsrd lfsrm ramp mixed (run at the "
               "design's input width)\n"
               "--signature W: compact responses in a width-W MISR "
               "(2..31) and report measured aliasing\n"
               "--threads N: fault-sim worker threads (0 = one per "
               "hardware thread; results identical for any N)\n"
               "exit codes: 0 ok, 1 error, 2 usage, 4 fuzz discrepancy;\n"
               "            partial campaigns: 3 cancelled, 5 deadline "
               "exceeded\n");
  return 2;
}

/// Checked numeric argument: on malformed input prints a one-line error
/// naming the parameter (the caller then prints usage and exits 2).
std::optional<std::size_t> arg_size(
    const char* text, const char* what, std::size_t min_value = 0,
    std::size_t max_value = std::numeric_limits<std::size_t>::max()) {
  auto v = common::parse_size(text, what, min_value, max_value);
  if (!v) {
    std::fprintf(stderr, "fdbist_cli: %s\n", v.error().to_string().c_str());
    return std::nullopt;
  }
  return *v;
}

std::optional<double> arg_double(const char* text, const char* what,
                                 double min_value, double max_value) {
  auto v = common::parse_double(text, what, min_value, max_value);
  if (!v) {
    std::fprintf(stderr, "fdbist_cli: %s\n", v.error().to_string().c_str());
    return std::nullopt;
  }
  return *v;
}

/// Resolve a design argument against the named registry,
/// case-insensitively. Unknown names print a one-line error (the
/// caller then prints usage and exits 2).
std::optional<std::string> resolve_design_name(const char* s) {
  std::string name(s);
  std::transform(name.begin(), name.end(), name.begin(),
                 [](unsigned char c) { return char(std::toupper(c)); });
  if (designs::has_design(name)) return name;
  std::fprintf(stderr,
               "fdbist_cli: unknown design \"%s\" (try `fdbist_cli "
               "designs`)\n",
               s);
  return std::nullopt;
}

/// Strict --signature argument: MISR width in 2..31, compaction through
/// the default primitive polynomial of that degree.
std::optional<fault::SignatureOptions> arg_signature(const char* text) {
  const auto w = arg_size(text, "--signature", 2, 31);
  if (!w) return std::nullopt;
  fault::SignatureOptions sig;
  sig.width = static_cast<int>(*w);
  sig.taps = tpg::default_polynomial(sig.width).low_terms;
  return sig;
}

std::unique_ptr<tpg::Generator> parse_generator(const std::string& s,
                                                std::size_t vectors,
                                                int width = 12) {
  if (s == "lfsr1")
    return tpg::make_generator(tpg::GeneratorKind::Lfsr1, width);
  if (s == "lfsr2")
    return tpg::make_generator(tpg::GeneratorKind::Lfsr2, width);
  if (s == "lfsrd")
    return tpg::make_generator(tpg::GeneratorKind::LfsrD, width);
  if (s == "lfsrm")
    return tpg::make_generator(tpg::GeneratorKind::LfsrM, width);
  if (s == "ramp")
    return tpg::make_generator(tpg::GeneratorKind::Ramp, width);
  if (s == "mixed")
    return std::make_unique<tpg::SwitchedLfsr>(width, vectors / 2, 1);
  return nullptr;
}

int cmd_design(int argc, char** argv) {
  if (argc < 4) return usage();
  dsp::FirSpec spec;
  const auto taps = arg_size(argv[2], "<taps>", 3, 4096);
  const auto f1 = arg_double(argv[3], "<f1>", 0.0, 0.5);
  if (!taps || !f1) return usage();
  spec.taps = *taps;
  spec.f1 = *f1;
  spec.kaiser_beta = 6.0;
  if (std::strcmp(argv[1], "lowpass") == 0) {
    spec.kind = dsp::FilterKind::Lowpass;
  } else if (std::strcmp(argv[1], "highpass") == 0) {
    spec.kind = dsp::FilterKind::Highpass;
  } else if (std::strcmp(argv[1], "bandpass") == 0) {
    if (argc < 5) return usage();
    spec.kind = dsp::FilterKind::Bandpass;
    const auto f2 = arg_double(argv[4], "<f2>", 0.0, 0.5);
    if (!f2) return usage();
    spec.f2 = *f2;
  } else {
    return usage();
  }
  if (const auto ok = dsp::validate_fir_spec(spec); !ok) {
    std::fprintf(stderr, "fdbist_cli: %s\n", ok.error().to_string().c_str());
    return 2;
  }
  auto h = dsp::design_fir(spec);
  const double scale = 0.98 / dsp::l1_norm(h);
  for (double& v : h) v *= scale;
  // Quantizing a long filter's many small coefficients adds truncation
  // slack that the 0.98 scale no longer covers, and build_fir refuses it.
  rtl::FilterDesign d;
  try {
    d = rtl::build_fir(h, {}, argv[1]);
  } catch (const precondition_error&) {
    std::fprintf(stderr,
                 "fdbist_cli: %zu taps overflow the %d-bit output (quantized "
                 "L1 norm plus truncation slack exceeds full scale); use "
                 "fewer taps\n",
                 spec.taps, rtl::kOutputWidth);
    return 2;
  }
  const auto s = d.stats();
  std::printf("%s: %zu taps, %zu adders, %zu registers, widths "
              "%d/%d/%d\n",
              argv[1], spec.taps, s.adders, s.registers, s.width_in,
              s.width_coef, s.width_out);
  std::printf("recommended generator: %s\n",
              tpg::kind_name(analysis::recommend_generator(d)));
  return 0;
}

int cmd_designs() {
  for (const auto& e : designs::design_registry()) {
    const auto d = designs::make_design(e.name);
    const auto s = d.stats();
    char shape[32];
    if (d.family == rtl::DesignFamily::Fir)
      std::snprintf(shape, sizeof shape, "%zu taps", d.coefs.size());
    else if (d.family == rtl::DesignFamily::IirBiquad)
      std::snprintf(shape, sizeof shape, "%zu sections", d.sections);
    else
      std::snprintf(shape, sizeof shape, "%zu phases", d.sections);
    std::printf("%-6s %-20s %-12s widths %d/%d/%d, %3zu adders  %s\n",
                e.name.c_str(), rtl::family_name(d.family), shape,
                s.width_in, s.width_coef, s.width_out, s.adders,
                e.description.c_str());
  }
  return 0;
}

int cmd_analyze(int argc, char** argv) {
  if (argc < 2) return usage();
  const auto name = resolve_design_name(argv[1]);
  if (!name) return usage();
  const auto d = designs::make_design(*name);
  std::printf("design %s: %zu adders\n", d.name.c_str(),
              d.stats().adders);
  const auto sigma = analysis::predict_sigma_lfsr1(d, 12);
  const auto problems = analysis::find_attenuation_problems(d, sigma);
  std::printf("LFSR-1 attenuation screen: %zu adders flagged\n",
              problems.size());
  for (std::size_t i = 0; i < problems.size() && i < 10; ++i)
    std::printf("  %-16s sigma/range %.4f -> ~%d hard upper bits\n",
                d.graph.node(problems[i].node).name.c_str(),
                problems[i].relative, problems[i].untestable_upper_bits);
  std::printf("recommendation: %s\n",
              tpg::kind_name(analysis::recommend_generator(d)));
  return 0;
}

/// Exit status for a campaign that stopped before finishing: the code
/// says *why* so harnesses can branch without scraping stderr.
int partial_exit_status(fdbist::ErrorCode reason) {
  switch (reason) {
  case ErrorCode::Cancelled: return 3;
  case ErrorCode::DeadlineExceeded: return 5;
  default: return 1;
  }
}

/// "Stopped early" report for a campaign.
int print_partial(const fault::FaultSimResult& r, ErrorCode reason) {
  std::printf("partial (%s): finalized %zu/%zu faults, coverage-so-far "
              "%.3f%% (%zu detected)\n",
              error_code_name(reason), r.finalized_count(), r.total_faults,
              100 * r.coverage(), r.detected);
  return partial_exit_status(reason);
}

/// Shared result line for faultsim and a completed campaign, so the
/// kill-and-resume smoke test can diff the two outputs directly.
void print_coverage_line(const std::string& design, const std::string& gen,
                         std::size_t vectors, const fault::FaultSimResult& r,
                         std::uint32_t signature) {
  std::printf("%s + %s, %zu vectors: coverage %.3f%% (%zu/%zu), "
              "missed %zu, golden signature %08X\n",
              design.c_str(), gen.c_str(), vectors, 100 * r.coverage(),
              r.detected, r.total_faults, r.missed(), signature);
}

/// Extra line printed by faultsim/campaign when --signature is on: the
/// *measured* aliasing of the compactor next to the paper's
/// 2 + 64*N*2^-w expectation (DESIGN.md §13). No-op otherwise, so the
/// kill-and-resume output diff is unchanged for uncompacted runs.
void print_signature_line(const fault::SignatureOptions& sig,
                          const fault::FaultSimResult& r) {
  if (!sig.enabled()) return;
  const double expectation =
      2.0 + 64.0 * double(r.detected) * std::ldexp(1.0, -sig.width);
  std::printf("signature %d-bit (taps %03X): detected %zu/%zu, aliased "
              "%zu (expected < %.2f)\n",
              sig.width, sig.taps, r.signature_detected(), r.detected,
              r.aliased(), expectation);
}

int cmd_faultsim(int argc, char** argv) {
  if (argc < 4) return usage();
  const auto name = resolve_design_name(argv[1]);
  const auto vectors = arg_size(argv[3], "<vectors>", 1, kMaxVectors);
  if (!name || !vectors) return usage();

  fault::FaultSimOptions opt;
  opt.num_threads = g_threads;
  for (int i = 4; i < argc; ++i) {
    if (std::strcmp(argv[i], "--signature") == 0 && i + 1 < argc) {
      const auto sig = arg_signature(argv[++i]);
      if (!sig) return usage();
      opt.signature = *sig;
    } else {
      std::fprintf(stderr, "fdbist_cli: unknown faultsim flag \"%s\"\n",
                   argv[i]);
      return usage();
    }
  }
  const auto d = designs::make_design(*name);
  auto gen = parse_generator(argv[2], *vectors, d.stats().width_in);
  if (!gen) return usage();
  bist::BistKit kit(d);
  auto report = kit.evaluate(*gen, *vectors, opt);
  print_coverage_line(d.name, gen->name(), *vectors, report.fault_result,
                      report.golden_signature);
  print_signature_line(opt.signature, report.fault_result);
  return 0;
}

int cmd_campaign(int argc, char** argv) {
  if (argc < 4) return usage();
  const auto name = resolve_design_name(argv[1]);
  const auto vectors = arg_size(argv[3], "<vectors>", 1, kMaxVectors);
  if (!name || !vectors) return usage();

  fault::CampaignOptions copt;
  copt.num_threads = g_threads;
  for (int i = 4; i < argc; ++i) {
    if (std::strcmp(argv[i], "--signature") == 0 && i + 1 < argc) {
      const auto sig = arg_signature(argv[++i]);
      if (!sig) return usage();
      copt.signature = *sig;
    } else if (std::strcmp(argv[i], "--checkpoint") == 0 && i + 1 < argc) {
      copt.checkpoint_path = argv[++i];
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      copt.resume = true;
    } else if (std::strcmp(argv[i], "--deadline-s") == 0 && i + 1 < argc) {
      const auto deadline = arg_double(argv[++i], "--deadline-s", 0.0, 1e9);
      if (!deadline) return usage();
      copt.deadline_s = *deadline;
    } else {
      std::fprintf(stderr, "fdbist_cli: unknown campaign flag \"%s\"\n",
                   argv[i]);
      return usage();
    }
  }
  if (copt.resume && copt.checkpoint_path.empty()) {
    std::fprintf(stderr, "fdbist_cli: --resume requires --checkpoint\n");
    return usage();
  }

  const auto d = designs::make_design(*name);
  copt.family = static_cast<std::uint32_t>(d.family);
  auto gen = parse_generator(argv[2], *vectors, d.stats().width_in);
  if (!gen) return usage();
  bist::BistKit kit(d);
  gen->reset();
  const auto stimulus = gen->generate_raw(*vectors);
  if (isatty(fileno(stderr)) != 0) {
    copt.progress = [](std::size_t done, std::size_t total) {
      std::fprintf(stderr, "\r  [campaign] %3d%%",
                   total == 0 ? 100 : int(100 * done / total));
      if (done >= total) std::fprintf(stderr, "\n");
      std::fflush(stderr);
    };
  }

  auto res = fault::run_campaign(kit.lowered().netlist, stimulus,
                                 kit.faults(), copt);
  if (!res) {
    std::fprintf(stderr, "fdbist_cli: %s\n", res.error().to_string().c_str());
    return 1;
  }
  if (res->resumed_faults > 0)
    std::fprintf(stderr,
                 "resumed from %s: %zu faults already finalized, %zu run "
                 "now\n",
                 copt.checkpoint_path.c_str(), res->resumed_faults,
                 res->sim.total_faults - res->resumed_faults);

  const fault::FaultSimResult& r = res->sim;
  if (!r.complete) return print_partial(r, *res->stop_reason);
  print_coverage_line(d.name, gen->name(), *vectors, r,
                      kit.golden_signature(stimulus, r));
  print_signature_line(copt.signature, r);
  return 0;
}

int cmd_fuzz(int argc, char** argv) {
  verify::FuzzOptions fopt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      const auto seed = arg_size(argv[++i], "--seed");
      if (!seed) return usage();
      fopt.seed = static_cast<std::uint64_t>(*seed);
    } else if (std::strcmp(argv[i], "--cases") == 0 && i + 1 < argc) {
      const auto cases = arg_size(argv[++i], "--cases", 1, 1u << 24);
      if (!cases) return usage();
      fopt.cases = *cases;
    } else if (std::strcmp(argv[i], "--corpus") == 0 && i + 1 < argc) {
      fopt.corpus_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--minimize") == 0 && i + 1 < argc) {
      const auto flag = arg_size(argv[++i], "--minimize", 0, 1);
      if (!flag) return usage();
      fopt.minimize = *flag != 0;
    } else if (std::strcmp(argv[i], "--mutate") == 0 && i + 1 < argc) {
      const auto k = arg_size(argv[++i], "--mutate", 0, 1u << 20);
      if (!k) return usage();
      fopt.mutate = static_cast<std::int32_t>(*k);
    } else if (std::strcmp(argv[i], "--family") == 0 && i + 1 < argc) {
      rtl::DesignFamily fam;
      if (!rtl::parse_design_family(argv[++i], fam)) {
        std::fprintf(stderr,
                     "fdbist_cli: unknown family \"%s\" (fir, iir, "
                     "decimator)\n",
                     argv[i]);
        return usage();
      }
      fopt.family = static_cast<std::int32_t>(fam);
    } else {
      std::fprintf(stderr, "fdbist_cli: unknown fuzz flag \"%s\"\n",
                   argv[i]);
      return usage();
    }
  }
  if (isatty(fileno(stderr)) != 0) {
    fopt.progress = [](std::size_t done, std::size_t total) {
      if (done % 64 == 0 || done == total) {
        std::fprintf(stderr, "\r  [fuzz] %zu/%zu cases", done, total);
        if (done == total) std::fprintf(stderr, "\n");
        std::fflush(stderr);
      }
    };
  }

  const auto report = verify::run_fuzz(fopt);
  std::printf("fuzz: seed %llu, %zu cases, %zu corpus replayed, "
              "%zu findings, %zu io errors\n",
              static_cast<unsigned long long>(fopt.seed), report.cases_run,
              report.corpus_replayed, report.findings.size(),
              report.io_errors.size());
  for (const std::string& e : report.io_errors)
    std::printf("  io: %s\n", e.c_str());
  for (const auto& f : report.findings) {
    std::printf("  [%s%s] %s\n", verify::case_kind_name(f.kind),
                f.from_corpus ? ", corpus" : "", f.detail.c_str());
    if (f.case_seed != 0)
      std::printf("    case seed %llu\n",
                  static_cast<unsigned long long>(f.case_seed));
    if (f.minimized_logic_gates > 0)
      std::printf("    minimized to %zu logic gates (%zu oracle calls)\n",
                  f.minimized_logic_gates,
                  f.minimize_stats.predicate_calls);
    if (!f.corpus_path.empty())
      std::printf("    reproducer: %s\n", f.corpus_path.c_str());
  }
  if (!report.findings.empty()) return 4;
  return report.io_errors.empty() ? 0 : 1;
}

int cmd_spectra(int argc, char** argv) {
  if (argc < 2) return usage();
  const dsp::WelchOptions opt{};
  std::size_t samples = std::size_t{1} << 14;
  if (argc > 2) {
    const auto parsed =
        arg_size(argv[2], "[samples]", opt.segment, std::size_t{1} << 24);
    if (!parsed) return usage();
    samples = *parsed;
  }
  auto gen = parse_generator(argv[1], samples);
  if (!gen) return usage();
  const auto x = gen->generate_real(samples);
  const auto psd = dsp::welch_psd(x, opt);
  const auto db = dsp::to_db(psd);
  const auto f = dsp::welch_frequencies(opt);
  for (std::size_t k = 0; k < psd.size(); k += 4)
    std::printf("%.4f %8.2f\n", f[k], db[k]);
  return 0;
}

int cmd_export(int argc, char** argv) {
  if (argc < 3) return usage();
  const auto name = resolve_design_name(argv[1]);
  if (!name) return usage();
  const auto d = designs::make_design(*name);
  if (std::strcmp(argv[2], "verilog") == 0) {
    const auto low = gate::lower(d.graph);
    gate::VerilogOptions opt;
    opt.module_name = "fdbist_" + d.name;
    gate::write_verilog(std::cout, low.netlist, opt);
    return 0;
  }
  if (std::strcmp(argv[2], "dot") == 0) {
    rtl::write_dot(std::cout, d.graph, {d.name, true});
    return 0;
  }
  return usage();
}

} // namespace

int main(int argc, char** argv) {
  // Strip the global --threads flag before command dispatch.
  if (argc >= 2 && std::strcmp(argv[1], "--threads") == 0) {
    if (argc < 3) return usage();
    const auto threads = arg_size(argv[2], "--threads", 0, 4096);
    if (!threads) return usage();
    g_threads = *threads;
    argv += 2;
    argc -= 2;
  }
  if (argc < 2) return usage();
  try {
    if (std::strcmp(argv[1], "designs") == 0) return cmd_designs();
    if (std::strcmp(argv[1], "design") == 0)
      return cmd_design(argc - 1, argv + 1);
    if (std::strcmp(argv[1], "analyze") == 0)
      return cmd_analyze(argc - 1, argv + 1);
    if (std::strcmp(argv[1], "faultsim") == 0)
      return cmd_faultsim(argc - 1, argv + 1);
    if (std::strcmp(argv[1], "campaign") == 0)
      return cmd_campaign(argc - 1, argv + 1);
    if (std::strcmp(argv[1], "spectra") == 0)
      return cmd_spectra(argc - 1, argv + 1);
    if (std::strcmp(argv[1], "export") == 0)
      return cmd_export(argc - 1, argv + 1);
    if (std::strcmp(argv[1], "fuzz") == 0)
      return cmd_fuzz(argc - 1, argv + 1);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
