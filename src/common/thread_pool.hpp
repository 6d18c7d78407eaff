// Work-sharing primitives for the parallel evaluation engine.
//
// Every parallel loop in the evaluator goes through parallel_for: workers
// pull indices from a shared atomic counter, so load imbalance (probe sets
// of very different table sizes, candidate plans of very different cost)
// self-schedules. Crucially, *what* is computed per index never depends on
// which worker runs it — determinism across thread counts is the callers'
// contract, and they keep it by deriving any per-index randomness from the
// index itself and by reducing results in index order.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace sca::common {

/// Resolves a thread-count request: `requested` > 0 wins, else the
/// SCA_THREADS environment variable, else std::thread::hardware_concurrency
/// (never 0).
inline unsigned resolve_threads(unsigned requested = 0) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("SCA_THREADS")) {
    const unsigned long v = std::strtoul(env, nullptr, 10);
    if (v > 0) return static_cast<unsigned>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// parallel_for with per-worker state: each worker constructs its own state
/// once via make() and then runs fn(state, i) for the indices it claims.
/// Used where the per-index work needs an expensive scratch structure (a
/// campaign worker's private Simulator) that must not be shared between
/// threads but is wasteful to rebuild per index.
///
/// Indices are claimed from a shared atomic counter; the calling thread is
/// one of the workers. Exceptions thrown by make() or fn() are captured and
/// the first one (in completion order) is rethrown on the calling thread
/// after all workers have joined. `threads` == 0 resolves via
/// resolve_threads(); n == 0 is a no-op; surplus workers beyond n are not
/// spawned. Determinism is preserved as long as fn's output depends only on
/// the index, never on the state's history.
/// The full form also takes finalize(state), run once per worker after it
/// has drained the index space (and skipped when any worker failed — the
/// exception wins). This is the hook for reductions that are commutative
/// and so need no per-index ordering: a worker accumulates privately across
/// all the indices it claimed and folds into the shared result exactly once.
template <typename MakeState, typename Fn, typename Finalize>
void parallel_for_stateful(std::size_t n, unsigned threads, MakeState&& make,
                           Fn&& fn, Finalize&& finalize) {
  if (n == 0) return;
  threads = resolve_threads(threads);
  if (static_cast<std::size_t>(threads) > n)
    threads = static_cast<unsigned>(n);

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr error;

  auto fail = [&](std::exception_ptr e) {
    std::lock_guard<std::mutex> lock(error_mutex);
    if (!error) error = std::move(e);
    failed.store(true, std::memory_order_release);
  };

  auto worker = [&] {
    try {
      auto state = make();
      while (true) {
        if (failed.load(std::memory_order_acquire)) return;
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        fn(state, i);
      }
      finalize(state);
    } catch (...) {
      fail(std::current_exception());
    }
  };

  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads - 1);
    for (unsigned t = 0; t + 1 < threads; ++t) pool.emplace_back(worker);
    worker();
    for (auto& th : pool) th.join();
  }
  if (error) std::rethrow_exception(error);
}

template <typename MakeState, typename Fn>
void parallel_for_stateful(std::size_t n, unsigned threads, MakeState&& make,
                           Fn&& fn) {
  parallel_for_stateful(n, threads, std::forward<MakeState>(make),
                        std::forward<Fn>(fn), [](auto&) {});
}

/// Runs fn(i) for every i in [0, n), distributing indices over up to
/// `threads` workers. See parallel_for_stateful for scheduling, exception,
/// and determinism semantics.
template <typename Fn>
void parallel_for(std::size_t n, unsigned threads, Fn&& fn) {
  struct NoState {};
  parallel_for_stateful(
      n, threads, [] { return NoState{}; },
      [&fn](NoState&, std::size_t i) { fn(i); });
}

}  // namespace sca::common
