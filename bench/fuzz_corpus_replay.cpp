// Replays a differential-fuzz corpus (minimized reproducers written by
// `fdbist_cli fuzz --corpus ...` or by the test suite) through the full
// oracle battery, then times a short fresh fuzz burst so the cost of one
// differential case is visible in bench logs.
//
//   build/bench/fuzz_corpus_replay [corpus-dir]
//
// Default corpus-dir: FDBIST_FUZZ_CORPUS env var, else "fuzz-corpus".
// A missing directory is an empty corpus (green), matching the library.
// Exit 4 on any reproduced finding — a corpus case is a known bug until
// the kernel fix lands, and the replay must say so loudly.
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench/bench_util.hpp"
#include "verify/fuzz.hpp"

int main(int argc, char** argv) {
  using namespace fdbist;
  using clock = std::chrono::steady_clock;

  std::string dir = "fuzz-corpus";
  if (const char* env = std::getenv("FDBIST_FUZZ_CORPUS");
      env != nullptr && env[0] != '\0')
    dir = env;
  if (argc > 1) dir = argv[1];

  bench::heading("fuzz corpus replay: " + dir);

  const auto files = verify::list_corpus(dir);
  if (!files) {
    std::fprintf(stderr, "replay: %s\n", files.error().to_string().c_str());
    return 1;
  }
  std::size_t failed = 0;
  const auto t0 = clock::now();
  for (const auto& file : *files) {
    const auto c = verify::load_case(file);
    if (!c) {
      std::printf("  %-40s UNREADABLE: %s\n", file.c_str(),
                  c.error().to_string().c_str());
      ++failed;
      continue;
    }
    const auto f = verify::check_corpus_case(*c, dir, 10u);
    std::printf("  %-40s %s\n", file.c_str(),
                f.failed ? "REPRODUCES" : "pass");
    if (f.failed) {
      bench::note("  " + f.detail);
      ++failed;
    }
  }
  const auto replay_s =
      std::chrono::duration<double>(clock::now() - t0).count();
  std::printf("  %zu case(s), %zu failing, %.2fs\n", files->size(), failed,
              replay_s);

  bench::heading("fresh differential throughput");
  verify::FuzzOptions opt;
  opt.seed = 1;
  opt.cases = bench::budget(256);
  opt.minimize = false;
  const auto t1 = clock::now();
  const auto report = verify::run_fuzz(opt);
  const auto fuzz_s = std::chrono::duration<double>(clock::now() - t1).count();
  std::printf("  %zu cases in %.2fs (%.1f ms/case), %zu finding(s)\n",
              report.cases_run, fuzz_s,
              1e3 * fuzz_s / double(report.cases_run ? report.cases_run : 1),
              report.findings.size());

  return (failed != 0 || !report.findings.empty()) ? 4 : 0;
}
