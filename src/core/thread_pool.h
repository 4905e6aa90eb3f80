#pragma once

/**
 * @file
 * A small shared worker pool for data-parallel loops — the execution
 * substrate of the multi-threaded Figure 7 design-space sweep and of any
 * future batched serving path.
 *
 * Design points:
 *  - lazily started: no threads exist until the first parallel_for();
 *  - sized by the MX_THREADS environment variable (when constructed
 *    with num_threads == 0), falling back to the hardware concurrency;
 *  - the calling thread participates as a lane, so a pool of size 1
 *    never spawns a thread and runs the loop inline;
 *  - parallel_for(n, body) invokes body(i) exactly once for every
 *    i in [0, n) — each index writes its own output slot, so results
 *    are identical for any thread count (the sweep determinism test in
 *    tests/test_sweep.cpp pins this);
 *  - nested/concurrent parallel_for calls degrade gracefully: a call
 *    from inside a pool lane runs inline on that lane;
 *  - idle lanes spin (yielding) for kSpinWindow before they block, so
 *    back-to-back loops — a model step's GEMMs — hand work to awake
 *    lanes instead of paying a condition-variable wake-up per call.
 *
 * Exceptions thrown by body are caught, the loop drained, and the first
 * one rethrown on the calling thread.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "core/thread_annotations.h"

namespace mx {
namespace core {

class ThreadPool
{
  public:
    /**
     * @param num_threads total lanes including the caller; 0 resolves
     *        MX_THREADS, then std::thread::hardware_concurrency().
     */
    explicit ThreadPool(std::size_t num_threads = 0);

    /** Joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Total lanes (worker threads + the calling thread). */
    std::size_t thread_count() const { return num_workers_ + 1; }

    /**
     * Run body(i) for every i in [0, n), fanning out across the pool.
     * Blocks until every index completed; rethrows the first exception.
     */
    void parallel_for(std::size_t n,
                      const std::function<void(std::size_t)>& body);

    /**
     * The process-wide pool (sized from MX_THREADS at first use).  Use
     * a locally constructed pool instead when a specific thread count
     * is required, e.g. for determinism tests.
     */
    static ThreadPool& shared();

    /** The lane count a default-constructed pool resolves to. */
    static std::size_t default_thread_count();

    /**
     * How long an idle lane (a worker between jobs, the caller waiting
     * for stragglers) polls before it blocks on a condition variable.
     * A blocked worker costs tens of microseconds to wake on a VM —
     * as much as a whole small GEMM — while a polling lane sees new
     * work within about a microsecond.  The poll yields, so a lane
     * another thread needs is given up.
     */
    static constexpr std::chrono::microseconds kSpinWindow{200};

  private:
    void ensure_started() MX_REQUIRES(run_mu_);
    void worker_loop() MX_EXCLUDES(mu_);
    /** One lane's share of the current job: @p body/@p n/@p chunk are
     *  the caller's snapshot of the job fields, taken under mu_ (or
     *  owned outright by parallel_for), so the work loop itself runs
     *  lock-free.  Only the first-exception slot touches mu_. */
    void run_items(const std::function<void(std::size_t)>& body,
                   std::size_t n, std::size_t chunk) MX_EXCLUDES(mu_);

    std::size_t num_workers_ = 0; ///< Lanes - 1 (threads actually spawned).
    Mutex run_mu_; ///< Serializes top-level parallel_for calls.
    std::vector<std::thread> workers_ MX_GUARDED_BY(run_mu_);
    bool started_ MX_GUARDED_BY(run_mu_) = false;

    Mutex mu_; ///< Guards the per-job fields below.
    std::condition_variable work_cv_;
    std::condition_variable done_cv_;
    /// Job counter.  Written under mu_ (so a blocked worker cannot miss
    /// a bump) and polled lock-free by idle workers.
    std::atomic<std::uint64_t> generation_{0};
    bool stop_ MX_GUARDED_BY(mu_) = false;
    /// Workers inside run_items.  Raised under mu_ (only while body_ is
    /// set), lowered lock-free; the caller polls it, then waits under
    /// mu_ for it to reach 0.
    std::atomic<std::size_t> active_{0};
    const std::function<void(std::size_t)>* body_ MX_GUARDED_BY(mu_) =
        nullptr;
    std::size_t n_ MX_GUARDED_BY(mu_) = 0;
    std::size_t chunk_ MX_GUARDED_BY(mu_) = 1;
    std::atomic<std::size_t> next_{0}; ///< Work cursor: atomic, unguarded.
    std::exception_ptr error_ MX_GUARDED_BY(mu_);
};

} // namespace core
} // namespace mx
