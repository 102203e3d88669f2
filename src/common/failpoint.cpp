#include "common/failpoint.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>

#include <signal.h>
#include <unistd.h>

#include "common/parse.hpp"

namespace fdbist::common {

namespace {

struct Site {
  FailpointSpec spec;
  std::atomic<std::uint64_t> hits{0};

  explicit Site(FailpointSpec s) : spec(std::move(s)) {}
};

// The registry is append-only per configure() call and replaced
// wholesale; readers take the mutex only when `active` says there is
// something to look up, so the common (no-failpoints) path is one
// relaxed load.
std::mutex g_mu;
std::vector<std::unique_ptr<Site>>& registry() {
  static std::vector<std::unique_ptr<Site>> r;
  return r;
}
std::atomic<bool> g_active{false};
std::atomic<bool> g_env_loaded{false};

void load_from_env_once() {
  if (g_env_loaded.load(std::memory_order_acquire)) return;
  const std::scoped_lock lock(g_mu);
  if (g_env_loaded.load(std::memory_order_relaxed)) return;
  const char* env = std::getenv("FDBIST_FAILPOINTS");
  if (env != nullptr && env[0] != '\0') {
    auto specs = parse_failpoints(env);
    if (!specs) {
      // A chaos run with a typo'd spec must not silently run healthy —
      // same hard-exit contract as a malformed FDBIST_TEST_SEED.
      std::fprintf(stderr, "fdbist: FDBIST_FAILPOINTS: %s\n",
                   specs.error().to_string().c_str());
      std::exit(2);
    }
    registry().clear();
    for (FailpointSpec& s : *specs)
      registry().push_back(std::make_unique<Site>(std::move(s)));
    g_active.store(!registry().empty(), std::memory_order_release);
  }
  g_env_loaded.store(true, std::memory_order_release);
}

Error bad_spec(const std::string& entry, const std::string& why) {
  return Error{ErrorCode::InvalidArgument,
               "failpoint \"" + entry + "\": " + why};
}

} // namespace

Expected<std::vector<FailpointSpec>> parse_failpoints(
    const std::string& spec) {
  std::vector<FailpointSpec> out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string entry =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? spec.size() + 1 : comma + 1;
    if (entry.empty()) {
      if (spec.empty()) break;
      return bad_spec(spec, "empty entry");
    }

    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0)
      return bad_spec(entry, "expected name=action");
    FailpointSpec fp;
    fp.name = entry.substr(0, eq);
    std::string action = entry.substr(eq + 1);

    const std::size_t at = action.find('@');
    if (at != std::string::npos) {
      const auto n = parse_size(action.c_str() + at + 1, "@count", 1,
                                std::numeric_limits<std::uint32_t>::max());
      if (!n) return bad_spec(entry, n.error().message);
      fp.from_hit = static_cast<std::uint32_t>(*n);
      action.resize(at);
    }

    if (action == "crash") {
      fp.action = FailAction::Crash;
    } else if (action == "corrupt") {
      fp.action = FailAction::Corrupt;
    } else if (action == "error") {
      fp.action = FailAction::Error;
    } else if (action == "off") {
      fp.action = FailAction::Off;
    } else {
      return bad_spec(entry, "unknown action \"" + action +
                                 "\" (crash, corrupt, error, off)");
    }
    out.push_back(std::move(fp));
  }
  return out;
}

Expected<void> failpoint_configure(const std::string& spec) {
  auto specs = parse_failpoints(spec);
  if (!specs) return specs.error();
  const std::scoped_lock lock(g_mu);
  registry().clear();
  for (FailpointSpec& s : *specs)
    registry().push_back(std::make_unique<Site>(std::move(s)));
  g_active.store(!registry().empty(), std::memory_order_release);
  g_env_loaded.store(true, std::memory_order_release);
  return {};
}

bool failpoints_active() {
  load_from_env_once();
  return g_active.load(std::memory_order_acquire);
}

bool failpoint_eval(const char* name) {
  if (!failpoints_active()) return false;

  FailAction action = FailAction::Off;
  {
    const std::scoped_lock lock(g_mu);
    for (const auto& site : registry()) {
      if (site->spec.name != name) continue;
      const std::uint64_t hit =
          site->hits.fetch_add(1, std::memory_order_relaxed) + 1;
      if (hit < site->spec.from_hit) return false;
      action = site->spec.action;
      break;
    }
  }

  switch (action) {
  case FailAction::Off:
    return false;
  case FailAction::Crash:
    // A real SIGKILL, not exit(): destructors must not run, buffers
    // must not flush — this is the power-cut the checkpoint layer
    // promises to survive.
    std::fprintf(stderr, "fdbist: failpoint %s: SIGKILL\n", name);
    std::fflush(stderr);
    ::kill(::getpid(), SIGKILL);
    ::pause(); // unreachable; quiets noreturn analysis
    return false;
  case FailAction::Corrupt:
  case FailAction::Error:
    std::fprintf(stderr, "fdbist: failpoint %s: armed (%s)\n", name,
                 action == FailAction::Corrupt ? "corrupt" : "error");
    return true;
  }
  return false;
}

} // namespace fdbist::common
