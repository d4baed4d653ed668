// Host worker pool for independent comparisons.
//
// PairCache::build and every farm driver's kernel pre-execution run their
// comparisons through run_pool(): a fixed set of host workers pulls item
// indices from a shared counter, each with its own scratch state (a kernel
// workspace), and results land by item index. Which worker ran an item
// therefore never changes an outcome — the inter-task parallelism SWAPHI
// uses on Xeon Phi, one independent alignment per thread.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace rck::rckalign {

/// Joins every still-joinable thread of `threads` when the scope ends,
/// however it ends (the join_threads idiom). A spawn that throws part-way
/// through a pool therefore never destroys a joinable std::thread.
class JoinThreads {
 public:
  explicit JoinThreads(std::vector<std::thread>& threads) : threads_(threads) {}
  ~JoinThreads() {
    for (std::thread& t : threads_)
      if (t.joinable()) t.join();
  }
  JoinThreads(const JoinThreads&) = delete;
  JoinThreads& operator=(const JoinThreads&) = delete;

 private:
  std::vector<std::thread>& threads_;
};

/// Workers a pool of `width` runs over `items` items: `width` <= 0 means
/// std::thread::hardware_concurrency(), capped at the item count, at least 1.
inline unsigned pool_width(int width, std::size_t items) noexcept {
  unsigned w = width > 0 ? static_cast<unsigned>(width)
                         : std::thread::hardware_concurrency();
  if (items < w) w = static_cast<unsigned>(items);
  return std::max(w, 1u);
}

/// Call `body(state, k)` for every k in [0, items) on pool_width(width,
/// items) workers. Each worker value-initializes its own `State` and keeps
/// it across its items. The calling thread is one of the workers, so width
/// 1 runs everything inline and spawns no thread.
///
/// Errors: once an item throws, workers stop taking higher indices, and
/// after every worker has joined the exception of the lowest failing index
/// is rethrown — the one a width-1 run raises, whatever the width.
template <class State, class Body>
void run_pool(std::size_t items, int width, Body&& body) {
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> failed_at{items};  // lowest failing index so far
  std::exception_ptr error;
  std::mutex error_m;
  const auto work = [&] {
    std::size_t k = items;  // a State that fails to construct ranks last
    try {
      State state{};
      while ((k = next.fetch_add(1, std::memory_order_relaxed)) < items &&
             k < failed_at.load(std::memory_order_relaxed))
        body(state, k);
    } catch (...) {
      std::lock_guard lock(error_m);
      if (!error || k < failed_at.load(std::memory_order_relaxed)) {
        error = std::current_exception();
        failed_at.store(k, std::memory_order_relaxed);
      }
    }
  };
  {
    const unsigned workers = pool_width(width, items);
    std::vector<std::thread> threads;
    JoinThreads join(threads);
    threads.reserve(workers - 1);
    for (unsigned t = 1; t < workers; ++t) threads.emplace_back(work);
    work();
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace rck::rckalign
