/**
 * @file
 * Unit tests for core::ThreadPool — the fan-out substrate of the
 * threaded design-space sweep.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/thread_pool.h"

using mx::core::ThreadPool;

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    for (std::size_t lanes : {1u, 2u, 4u, 8u}) {
        ThreadPool pool(lanes);
        EXPECT_EQ(pool.thread_count(), lanes);
        std::vector<std::atomic<int>> hits(1000);
        pool.parallel_for(hits.size(),
                          [&](std::size_t i) { hits[i].fetch_add(1); });
        for (std::size_t i = 0; i < hits.size(); ++i)
            ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, ReusableAcrossCalls)
{
    ThreadPool pool(4);
    for (int round = 0; round < 20; ++round) {
        std::atomic<std::size_t> sum{0};
        pool.parallel_for(round * 7 + 1,
                          [&](std::size_t i) { sum.fetch_add(i + 1); });
        const std::size_t n = static_cast<std::size_t>(round * 7 + 1);
        EXPECT_EQ(sum.load(), n * (n + 1) / 2);
    }
}

TEST(ThreadPool, ReturnsOnlyAfterSlowLanesFinish)
{
    // Each body outlasts ThreadPool::kSpinWindow, so the caller's wait
    // for the other lanes falls back from polling to blocking.
    ThreadPool pool(4);
    for (int round = 0; round < 3; ++round) {
        std::vector<std::atomic<int>> done(8);
        pool.parallel_for(done.size(), [&](std::size_t i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            done[i].store(1);
        });
        for (std::size_t i = 0; i < done.size(); ++i)
            ASSERT_EQ(done[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, EmptyLoopIsANoop)
{
    ThreadPool pool(4);
    bool ran = false;
    pool.parallel_for(0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, PropagatesFirstException)
{
    ThreadPool pool(4);
    std::atomic<int> completed{0};
    EXPECT_THROW(pool.parallel_for(100,
                                   [&](std::size_t i) {
                                       if (i == 13)
                                           throw std::runtime_error("boom");
                                       completed.fetch_add(1);
                                   }),
                 std::runtime_error);
    EXPECT_LT(completed.load(), 100);
}

TEST(ThreadPool, NestedCallsRunInline)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(64);
    pool.parallel_for(8, [&](std::size_t outer) {
        pool.parallel_for(8, [&](std::size_t inner) {
            hits[outer * 8 + inner].fetch_add(1);
        });
    });
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, SharedPoolIsUsable)
{
    std::atomic<std::size_t> sum{0};
    ThreadPool::shared().parallel_for(256,
                                      [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 256u * 255u / 2u);
    EXPECT_GE(ThreadPool::shared().thread_count(), 1u);
    EXPECT_GE(ThreadPool::default_thread_count(), 1u);
}
