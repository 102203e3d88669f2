// Minimal fork-join threading utilities.
//
// Two layers: run_workers() spawns a fixed worker group and joins it
// (worker 0 runs on the calling thread, so a thread count of 1 never
// touches std::thread), and parallel_for() distributes indices over a
// worker group one at a time through an atomic cursor, which keeps
// uneven per-item costs balanced without any static partitioning.
// Callers that need determinism write results indexed by item (never by
// completion order) and merge after the join — see fault/simulator.cpp
// for the canonical use.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace fdbist::common {

/// Cooperative cancellation with an optional deadline.
///
/// A token is shared by reference with workers, who poll cancelled() at
/// natural stopping points (the fault engine polls between work units:
/// a batch, or one time segment of a batch) and wind down gracefully —
/// partial results are returned, never discarded. cancel() may be
/// called from any thread, including a signal-adjacent watcher or
/// another worker. The deadline, by contrast, must be configured before
/// the token is shared (it is plain data; the happens-before edge comes
/// from thread creation).
///
/// Tokens chain: a child constructed with a parent reports cancelled()
/// when either fires, which lets a scoped deadline (one campaign call)
/// nest under a caller-owned kill switch without mutating the caller's
/// token.
class CancelToken {
public:
  CancelToken() = default;
  explicit CancelToken(const CancelToken* parent) : parent_(parent) {}

  /// Request cancellation. Thread-safe, idempotent.
  void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }

  /// Cancel automatically once `seconds` have elapsed from now. Call
  /// before sharing the token with workers; not thread-safe afterwards.
  void set_deadline_after(double seconds) {
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(seconds));
    has_deadline_ = true;
  }

  /// True once cancel() was called (here or on an ancestor) or the
  /// deadline has passed. Safe to call concurrently from any thread.
  bool cancelled() const noexcept {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_)
      return true;
    return parent_ != nullptr && parent_->cancelled();
  }

  /// Why the token fired: an explicit cancel() anywhere in the chain
  /// reports Cancelled; otherwise an expired deadline reports
  /// DeadlineExceeded. Meaningful only once cancelled() is true.
  ErrorCode reason() const noexcept {
    if (cancelled_.load(std::memory_order_relaxed)) return ErrorCode::Cancelled;
    if (parent_ != nullptr && parent_->cancelled()) return parent_->reason();
    return ErrorCode::DeadlineExceeded;
  }

private:
  std::atomic<bool> cancelled_{false};
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  const CancelToken* parent_ = nullptr;
};

/// Resolve a user-facing thread-count knob: 0 means "one worker per
/// hardware thread". hardware_concurrency() may itself report 0 on
/// exotic platforms; fall back to a single worker there.
inline std::size_t resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? std::size_t{1} : std::size_t{hw};
}

/// Run `fn(worker)` for every worker in [0, threads): worker 0 on the
/// calling thread, the rest on freshly spawned threads, all joined
/// before returning. The first exception thrown by any worker is
/// rethrown on the caller after the join (later ones are dropped).
template <typename Fn>
void run_workers(std::size_t threads, Fn&& fn) {
  if (threads <= 1) {
    fn(std::size_t{0});
    return;
  }
  std::mutex err_mu;
  std::exception_ptr err;
  auto guarded = [&](std::size_t worker) {
    try {
      fn(worker);
    } catch (...) {
      const std::scoped_lock lock(err_mu);
      if (!err) err = std::current_exception();
    }
  };
  std::vector<std::thread> spawned;
  spawned.reserve(threads - 1);
  for (std::size_t w = 1; w < threads; ++w) spawned.emplace_back(guarded, w);
  guarded(0);
  for (std::thread& t : spawned) t.join();
  if (err) std::rethrow_exception(err);
}

/// Invoke `body(worker, index)` for every index in [0, count) across at
/// most `threads` workers (pass the result of resolve_threads(); a
/// value of 0 is treated as 1). Indices are claimed dynamically, so
/// execution order across items is unspecified — but each index runs
/// at most once, and the call blocks until all workers are joined.
/// Exceptions propagate as in run_workers; workers stop claiming new
/// indices once one has failed.
///
/// If `cancel` is non-null, workers also stop claiming indices once the
/// token fires: indices already claimed finish normally (a body is
/// never interrupted mid-item) and unclaimed ones never run. The caller
/// learns which indices ran from its own per-item records — with
/// dynamic claiming the executed set need not be a prefix of [0,
/// count). See fault/simulator.cpp for the canonical use.
template <typename Body>
void parallel_for(std::size_t count, std::size_t threads,
                  const CancelToken* cancel, Body&& body) {
  const std::size_t workers =
      std::min(threads == 0 ? std::size_t{1} : threads, count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) {
      if (cancel != nullptr && cancel->cancelled()) return;
      body(std::size_t{0}, i);
    }
    return;
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  run_workers(workers, [&](std::size_t worker) {
    try {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < count && !failed.load(std::memory_order_relaxed) &&
           !(cancel != nullptr && cancel->cancelled());
           i = next.fetch_add(1, std::memory_order_relaxed))
        body(worker, i);
    } catch (...) {
      failed.store(true, std::memory_order_relaxed);
      throw;
    }
  });
}

template <typename Body>
void parallel_for(std::size_t count, std::size_t threads, Body&& body) {
  parallel_for(count, threads, nullptr, std::forward<Body>(body));
}

} // namespace fdbist::common
