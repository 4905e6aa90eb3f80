#include "core/thread_pool.h"

#include <algorithm>
#include <chrono>

#include "core/env.h"
#include "obs/obs.h"

namespace mx {
namespace core {

namespace {

/** True while the current thread is executing pool work. */
thread_local bool tl_in_pool = false;

/** Poll @p done, yielding between polls, for up to kSpinWindow; true
 *  as soon as it holds, false if the window ran out first. */
template <typename Pred>
bool
spin_until(const Pred& done)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point deadline = Clock::now() + ThreadPool::kSpinWindow;
    for (unsigned polls = 1;; ++polls) {
        if (done())
            return true;
        // Reading the clock costs more than a poll; look every 64th.
        if (polls % 64 == 0 && Clock::now() >= deadline)
            return false;
        std::this_thread::yield();
    }
}

} // namespace

std::size_t
ThreadPool::default_thread_count()
{
    // 0 (explicit or as the unset fallback) = "no override": fall
    // through to the hardware concurrency.
    const std::size_t from_env =
        env::size_knob("MX_THREADS", 0, /*min_value=*/0);
    if (from_env > 0)
        return from_env;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(std::size_t num_threads)
{
    const std::size_t lanes =
        num_threads > 0 ? num_threads : default_thread_count();
    num_workers_ = lanes - 1;
}

ThreadPool::~ThreadPool()
{
    {
        LockGuard lk(mu_);
        stop_ = true;
        generation_.fetch_add(1, std::memory_order_release); // end polls
    }
    work_cv_.notify_all();
    // run_mu_ makes the workers_ read provable; it cannot contend —
    // a parallel_for still holding it while the pool dies is already
    // a use-after-free — and the workers never take run_mu_.
    LockGuard run_lock(run_mu_);
    for (std::thread& t : workers_)
        t.join();
}

ThreadPool&
ThreadPool::shared()
{
    static ThreadPool pool;
    return pool;
}

void
ThreadPool::ensure_started()
{
    if (started_)
        return;
    started_ = true;
    workers_.reserve(num_workers_);
    for (std::size_t i = 0; i < num_workers_; ++i)
        workers_.emplace_back([this] { worker_loop(); });
}

void
ThreadPool::run_items(const std::function<void(std::size_t)>& body,
                      std::size_t n, std::size_t chunk)
{
    const bool was_in_pool = tl_in_pool;
    tl_in_pool = true;
    for (;;) {
        const std::size_t begin =
            next_.fetch_add(chunk, std::memory_order_relaxed);
        if (begin >= n)
            break;
        const std::size_t end = std::min(n, begin + chunk);
        for (std::size_t i = begin; i < end; ++i) {
            try {
                body(i);
            } catch (...) {
                {
                    LockGuard lk(mu_);
                    if (!error_)
                        error_ = std::current_exception();
                }
                next_.store(n, std::memory_order_relaxed); // drain
                tl_in_pool = was_in_pool;
                return;
            }
        }
    }
    tl_in_pool = was_in_pool;
}

void
ThreadPool::worker_loop()
{
    obs::set_thread_name("pool-worker");
    std::uint64_t seen = 0;
    for (;;) {
        spin_until([&] {
            return generation_.load(std::memory_order_acquire) != seen;
        });
        // Snapshot the job under the lock; the work loop runs on the
        // snapshot so it never touches the guarded fields lock-free.
        const std::function<void(std::size_t)>* body = nullptr;
        std::size_t n = 0;
        std::size_t chunk = 1;
        {
            UniqueLock lk(mu_);
            while (!stop_ &&
                   generation_.load(std::memory_order_relaxed) == seen)
                lk.wait(work_cv_);
            if (stop_)
                return;
            seen = generation_.load(std::memory_order_relaxed);
            // Woke after the job finished, or after every index was
            // claimed: nothing to do, and joining would only hold the
            // caller up.
            if (!body_ || next_.load(std::memory_order_relaxed) >= n_)
                continue;
            active_.fetch_add(1, std::memory_order_relaxed);
            body = body_;
            n = n_;
            chunk = chunk_;
        }
        run_items(*body, n, chunk);
        if (active_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            // The caller may be blocked on done_cv_: notify under mu_
            // so the wake-up cannot fall between its check and wait.
            LockGuard lk(mu_);
            done_cv_.notify_all();
        }
    }
}

void
ThreadPool::parallel_for(std::size_t n,
                         const std::function<void(std::size_t)>& body)
{
    if (n == 0)
        return;
    // Inline when the pool adds nothing (single lane, tiny loop) or when
    // called from inside a pool lane (nested parallelism would deadlock
    // on run_mu_; the outer loop already owns the fan-out).
    if (num_workers_ == 0 || n == 1 || tl_in_pool) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    obs::Span span("pool.parallel_for");
    span.arg("n", static_cast<double>(n));

    LockGuard run_lock(run_mu_);
    ensure_started();
    const std::size_t chunk =
        std::max<std::size_t>(1, n / (thread_count() * 8));
    {
        LockGuard lk(mu_);
        body_ = &body;
        n_ = n;
        chunk_ = chunk;
        next_.store(0, std::memory_order_relaxed);
        error_ = nullptr;
        generation_.fetch_add(1, std::memory_order_release);
    }
    work_cv_.notify_all(); // no syscall when every worker is polling
    run_items(body, n, chunk); // the caller is a lane too
    std::exception_ptr err;
    for (;;) {
        const bool drained = spin_until(
            [&] { return active_.load(std::memory_order_acquire) == 0; });
        // Under mu_ no worker can join (it raises active_ under mu_
        // and only while body_ is set), so 0 here means done.
        UniqueLock lk(mu_);
        if (drained && active_.load(std::memory_order_acquire) != 0)
            continue; // a lane joined after the poll: poll it out too
        while (active_.load(std::memory_order_acquire) != 0)
            lk.wait(done_cv_);
        body_ = nullptr;
        err = error_;
        error_ = nullptr;
        break;
    }
    if (err)
        std::rethrow_exception(err);
}

} // namespace core
} // namespace mx
