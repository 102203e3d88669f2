#include "verify/fuzz.hpp"

#include <atomic>
#include <filesystem>

#include <unistd.h>

#include "common/env.hpp"
#include "gate/lower.hpp"
#include "verify/properties.hpp"

namespace fdbist::verify {

namespace {

std::size_t lowered_logic_gates(const RtlCase& c) {
  return gate::lower(build_graph(c)).netlist.logic_gate_count();
}

/// A checkpoint path in `dir` that no other check uses, in this process
/// or in any other: runs that share a corpus or temp directory must not
/// overwrite, resume or delete each other's checkpoint.
std::string unique_checkpoint_path(const std::string& dir) {
  static std::atomic<std::uint64_t> next{0};
  const std::string name =
      "fuzz-resume-" + std::to_string(::getpid()) + "-" +
      std::to_string(next.fetch_add(1, std::memory_order_relaxed)) + ".ckpt";
  return (std::filesystem::path(dir) / name).string();
}

Finding check_one(const CorpusCase& c, const std::string& scratch_dir,
                  unsigned property_mask) {
  if (c.kind == CaseKind::Rtl) return check_rtl_case(c.rtl);
  if (auto f = check_filter_case(c.filter)) return f;
  // Property checks only make sense against an unmutated stack: with an
  // injected kernel bug the differential rows above must already have
  // fired, and chasing property fallout of a known mutation would only
  // muddy the report.
  if (c.filter.mutate >= 0) return Finding::ok();
  if (auto f = check_superposition(c.filter)) return f;
  if (auto f = check_prefix_dominance(c.filter)) return f;
  if ((property_mask & 2u) != 0 && !scratch_dir.empty()) {
    const std::string ckpt = unique_checkpoint_path(scratch_dir);
    auto f = check_mixed_engine_resume(c.filter, ckpt);
    std::error_code ec;
    std::filesystem::remove(ckpt, ec); // keep the scratch dir clean
    if (f) return f;
  }
  if ((property_mask & 4u) != 0)
    if (auto f = check_slice_verdicts(c.filter)) return f;
  if ((property_mask & 8u) != 0)
    if (auto f = check_signature_compaction(c.filter)) return f;
  return Finding::ok();
}

} // namespace

std::string finding_category(const std::string& detail) {
  const std::size_t colon = detail.find(':');
  return colon == std::string::npos ? detail : detail.substr(0, colon);
}

FuzzReport run_fuzz(const FuzzOptions& opt) {
  FuzzReport report;
  const std::string scratch =
      opt.corpus_dir.empty()
          ? std::filesystem::temp_directory_path().string()
          : opt.corpus_dir;

  // 1. Regression pass over the persisted corpus. The directory is
  // created first: it is also the scratch dir of the mixed-engine
  // resume property, and the home of new reproducers.
  if (!opt.corpus_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opt.corpus_dir, ec);
    if (ec)
      report.io_errors.push_back("cannot create corpus directory " +
                                 opt.corpus_dir + ": " + ec.message());
    auto files = list_corpus(opt.corpus_dir);
    if (!files) {
      report.io_errors.push_back(files.error().to_string());
    } else {
      for (const std::string& path : *files) {
        auto loaded = load_case(path);
        if (!loaded) {
          report.io_errors.push_back(loaded.error().to_string());
          continue;
        }
        ++report.corpus_replayed;
        // Replay with every property enabled: a minimized reproducer is
        // small, so the full battery stays cheap.
        if (auto f = check_one(*loaded, scratch, 14u)) {
          FuzzFinding finding;
          finding.kind = loaded->kind;
          finding.detail = f.detail;
          finding.corpus_path = path;
          finding.from_corpus = true;
          if (loaded->kind == CaseKind::Rtl)
            finding.minimized_logic_gates = lowered_logic_gates(loaded->rtl);
          report.findings.push_back(std::move(finding));
        }
      }
    }
  }

  // 2. Random pass.
  for (std::size_t i = 0; i < opt.cases; ++i) {
    const std::uint64_t case_seed = common::mix_seed(opt.seed + i);
    CorpusCase c;
    if (i % 2 == 0) {
      c.kind = CaseKind::Rtl;
      c.rtl = random_rtl_case(case_seed);
      c.rtl.mutate = opt.mutate;
    } else {
      c.kind = CaseKind::Filter;
      c.filter = random_filter_case(case_seed, opt.family);
      c.filter.mutate = opt.mutate;
    }
    const unsigned mask = (i % 32 == 3 ? 2u : 0u) |
                          (i % 16 == 7 ? 4u : 0u) |
                          (i % 4 == 1 ? 8u : 0u);

    Finding f = check_one(c, scratch, mask);
    ++report.cases_run;
    if (f) {
      FuzzFinding finding;
      finding.kind = c.kind;
      finding.case_seed = case_seed;
      finding.detail = f.detail;

      if (opt.minimize) {
        // Shrink while the same *category* of finding reproduces, so
        // e.g. an engine divergence cannot degenerate into a case that
        // "fails" merely because its mutation stopped mattering.
        const std::string category = finding_category(f.detail);
        if (c.kind == CaseKind::Rtl) {
          c.rtl = minimize_rtl_case(
              c.rtl,
              [&](const RtlCase& t) {
                const Finding r = check_rtl_case(t);
                return r.failed && finding_category(r.detail) == category;
              },
              &finding.minimize_stats);
          c.detail = check_rtl_case(c.rtl).detail;
        } else {
          c.filter = minimize_filter_case(
              c.filter,
              [&](const FilterCase& t) {
                const Finding r = check_one(
                    CorpusCase{CaseKind::Filter, "", {}, t}, scratch, mask);
                return r.failed && finding_category(r.detail) == category;
              },
              &finding.minimize_stats);
          c.detail =
              check_one(CorpusCase{CaseKind::Filter, "", {}, c.filter},
                        scratch, mask)
                  .detail;
        }
        finding.detail = c.detail;
      } else {
        c.detail = f.detail;
      }

      if (c.kind == CaseKind::Rtl)
        finding.minimized_logic_gates = lowered_logic_gates(c.rtl);

      if (!opt.corpus_dir.empty()) {
        const std::string path =
            (std::filesystem::path(opt.corpus_dir) /
             case_filename(c.kind, case_seed))
                .string();
        if (auto saved = save_case(path, c))
          finding.corpus_path = path;
        else
          report.io_errors.push_back(saved.error().to_string());
      }
      report.findings.push_back(std::move(finding));
    }
    if (opt.progress) opt.progress(i + 1, opt.cases);
  }
  return report;
}

} // namespace fdbist::verify
