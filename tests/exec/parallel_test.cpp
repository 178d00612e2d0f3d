// The exec layer's determinism contract: static chunk assignment is a pure
// function of (count, threads), every index is covered exactly once, the
// serial path runs inline, and exceptions propagate deterministically.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/parallel.hpp"

namespace flopsim::exec {
namespace {

TEST(ChunkOf, PartitionsEveryCountExactlyOnce) {
  for (std::size_t count : {0u, 1u, 2u, 7u, 8u, 9u, 64u, 1000u}) {
    for (int threads : {1, 2, 3, 7, 8, 64}) {
      std::vector<int> hits(count, 0);
      std::size_t prev_end = 0;
      std::size_t first_len = ThreadPool::chunk_of(count, threads, 0).end;
      for (int w = 0; w < threads; ++w) {
        const ThreadPool::Chunk c = ThreadPool::chunk_of(count, threads, w);
        EXPECT_EQ(c.begin, prev_end) << "chunks must be contiguous";
        EXPECT_LE(c.begin, c.end);
        // Static balance: no chunk longer than chunk 0, none shorter by
        // more than one index.
        EXPECT_LE(c.end - c.begin, first_len);
        EXPECT_GE(c.end - c.begin + 1, count / threads);
        for (std::size_t i = c.begin; i < c.end; ++i) ++hits[i];
        prev_end = c.end;
      }
      EXPECT_EQ(prev_end, count);
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i], 1) << "index " << i << " covered "
                              << hits[i] << " times";
      }
    }
  }
}

TEST(ChunkOf, OutOfRangeWorkerOwnsNothing) {
  // A worker index outside [0, threads) — or a degenerate thread count —
  // must never claim indices: the empty chunk is the contract, not UB.
  struct Case {
    std::size_t count;
    int threads;
    int worker;
  };
  const Case cases[] = {{10, 4, 4}, {10, 4, 17}, {10, 4, -1},
                        {10, 0, 0}, {10, -3, 0}};
  for (const Case& k : cases) {
    const ThreadPool::Chunk c =
        ThreadPool::chunk_of(k.count, k.threads, k.worker);
    EXPECT_EQ(c.begin, 0u) << k.count << "/" << k.threads << "/" << k.worker;
    EXPECT_EQ(c.end, 0u) << k.count << "/" << k.threads << "/" << k.worker;
  }
}

TEST(ChunkOf, ZeroCountGivesEveryWorkerAnEmptyChunk) {
  for (int w = 0; w < 8; ++w) {
    const ThreadPool::Chunk c = ThreadPool::chunk_of(0, 8, w);
    EXPECT_EQ(c.begin, c.end);
  }
}

TEST(ChunkOf, FewerTrialsThanWorkersLeavesTheTailEmpty) {
  // count < threads: the first `count` workers get one index each, the
  // rest get empty chunks — never a negative-length or overlapping span.
  const std::size_t count = 3;
  const int threads = 8;
  for (int w = 0; w < threads; ++w) {
    const ThreadPool::Chunk c = ThreadPool::chunk_of(count, threads, w);
    if (static_cast<std::size_t>(w) < count) {
      EXPECT_EQ(c.begin, static_cast<std::size_t>(w));
      EXPECT_EQ(c.end, static_cast<std::size_t>(w) + 1);
    } else {
      EXPECT_EQ(c.begin, c.end) << "worker " << w;
    }
  }
}

TEST(ResolveThreads, ExplicitRequestWinsAndIsClamped) {
  EXPECT_EQ(resolve_threads(1), 1);
  EXPECT_EQ(resolve_threads(4), 4);
  EXPECT_EQ(resolve_threads(kMaxThreads + 100), kMaxThreads);
  EXPECT_GE(resolve_threads(0), 1);  // auto can never be zero
}

TEST(ResolveThreads, EnvironmentDrivesTheAutoPath) {
  ASSERT_EQ(setenv("FLOPSIM_THREADS", "3", 1), 0);
  EXPECT_EQ(resolve_threads(0), 3);
  EXPECT_EQ(resolve_threads(2), 2) << "explicit request beats the env";
  ASSERT_EQ(setenv("FLOPSIM_THREADS", "junk", 1), 0);
  EXPECT_GE(resolve_threads(0), 1) << "garbage falls back to hardware";
  ASSERT_EQ(unsetenv("FLOPSIM_THREADS"), 0);
}

TEST(ResolveThreads, DegenerateEnvValuesFallBackOrClamp) {
  // Zero and negative are not valid worker counts: auto falls through to
  // hardware concurrency instead of honouring them.
  ASSERT_EQ(setenv("FLOPSIM_THREADS", "0", 1), 0);
  EXPECT_GE(resolve_threads(0), 1);
  ASSERT_EQ(setenv("FLOPSIM_THREADS", "-4", 1), 0);
  EXPECT_GE(resolve_threads(0), 1);
  // Trailing garbage after digits is garbage, not a number.
  ASSERT_EQ(setenv("FLOPSIM_THREADS", "4x", 1), 0);
  EXPECT_GE(resolve_threads(0), 1);
  // A huge-but-valid value is clamped to the pool ceiling, not rejected.
  ASSERT_EQ(setenv("FLOPSIM_THREADS", "999999", 1), 0);
  EXPECT_EQ(resolve_threads(0), kMaxThreads);
  ASSERT_EQ(unsetenv("FLOPSIM_THREADS"), 0);
}

TEST(ParallelFor, SerialPathRunsInlineOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  parallel_for_grid(10, 1, [&](int worker, std::size_t begin,
                               std::size_t end) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(worker, 0);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 10u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, EveryThreadCountProducesTheSameSlots) {
  const std::size_t n = 257;  // awkward: prime, not a multiple of anything
  std::vector<long> expect(n);
  for (std::size_t i = 0; i < n; ++i) {
    expect[i] = static_cast<long>(i * i + 1);
  }
  for (int threads : {1, 2, 3, 8, 32}) {
    std::vector<long> slots(n, -1);
    parallel_for_grid(n, threads, [&](int /*worker*/, std::size_t begin,
                                      std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        slots[i] = static_cast<long>(i * i + 1);
      }
    });
    EXPECT_EQ(slots, expect) << "threads=" << threads;
  }
}

TEST(ParallelFor, ClampsWorkersToTheTrialCount) {
  std::atomic<int> distinct{0};
  parallel_for_grid(3, 16, [&](int /*worker*/, std::size_t begin,
                               std::size_t end) {
    if (begin != end) distinct.fetch_add(1);
  });
  EXPECT_EQ(distinct.load(), 3) << "never more live chunks than trials";
}

TEST(ParallelFor, ZeroCountIsANoOp) {
  int calls = 0;
  parallel_for_grid(0, 8, [&](int, std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, IsReusableAcrossJobs) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.threads(), 4);
  for (int round = 0; round < 3; ++round) {
    std::vector<int> slots(100, -1);
    pool.run_chunked(slots.size(), [&](int worker, std::size_t begin,
                                       std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) slots[i] = worker;
    });
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const ThreadPool::Chunk c =
          ThreadPool::chunk_of(slots.size(), 4, slots[i]);
      EXPECT_GE(i, c.begin);
      EXPECT_LT(i, c.end);
    }
  }
}

TEST(ThreadPool, RethrowsTheLowestWorkerIndexException) {
  ThreadPool pool(4);
  // Workers 1 and 3 throw; the pool must surface worker 1's exception —
  // the deterministic choice — after all chunks quiesced.
  try {
    pool.run_chunked(8, [&](int worker, std::size_t, std::size_t) {
      if (worker == 1) throw std::runtime_error("from worker 1");
      if (worker == 3) throw std::logic_error("from worker 3");
    });
    FAIL() << "expected run_chunked to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "from worker 1");
  }
  // The pool survives a throwing job.
  std::atomic<int> ok{0};
  pool.run_chunked(8, [&](int, std::size_t begin, std::size_t end) {
    ok.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(ok.load(), 8);
}

TEST(ThreadPool, CallerChunkExceptionPropagates) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.run_chunked(4,
                                [&](int worker, std::size_t, std::size_t) {
                                  if (worker == 0) {
                                    throw std::runtime_error("caller chunk");
                                  }
                                }),
               std::runtime_error);
}

}  // namespace
}  // namespace flopsim::exec
