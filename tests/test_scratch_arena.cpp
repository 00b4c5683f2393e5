/**
 * @file
 * ScratchArena unit, concurrency and zero-allocation tests.
 *
 * The file replaces the global operator new/delete with counting
 * forwarders (binary-wide, counting only — behavior is unchanged for
 * every other test), which is what lets the steady-state suites assert
 * that a warm sampling / neighbor-search call performs a small constant
 * number of heap allocations regardless of the query count: per-query
 * scratch comes from the thread-local arena, never the heap.
 *
 * The ScratchArenaConcurrency suite is part of the TSan gate
 * (tools/ci/run_tsan.sh matches 'ScratchArena'): it hammers the
 * thread-local arenas from pool workers and exercises the
 * publish-via-parallelFor pattern the kernels rely on.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/scratch_arena.hpp"
#include "common/thread_pool.hpp"
#include "datasets/shapes.hpp"
#include "models/dgcnn.hpp"
#include "neighbor/ball_query.hpp"
#include "neighbor/brute_force.hpp"
#include "neighbor/morton_window.hpp"
#include "nn/gemm.hpp"
#include "nn/layers.hpp"
#include "nn/quant.hpp"
#include "sampling/fps.hpp"
#include "sampling/morton_sampler.hpp"

namespace {

std::atomic<std::uint64_t> g_heapAllocs{0};
std::atomic<std::uint64_t> g_heapBytes{0};
/** Largest single allocation since the last reset to 0. */
std::atomic<std::uint64_t> g_heapMaxBlock{0};

void
countAlloc(std::size_t size)
{
    g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
    g_heapBytes.fetch_add(size, std::memory_order_relaxed);
    std::uint64_t seen = g_heapMaxBlock.load(std::memory_order_relaxed);
    while (size > seen &&
           !g_heapMaxBlock.compare_exchange_weak(seen, size,
                                                 std::memory_order_relaxed)) {
    }
}

void *
countedAlloc(std::size_t size)
{
    countAlloc(size);
    return std::malloc(size == 0 ? 1 : size);
}

void *
countedAlignedAlloc(std::size_t size, std::size_t align)
{
    countAlloc(size);
    if (align < sizeof(void *)) {
        align = sizeof(void *);
    }
    void *p = nullptr;
    if (posix_memalign(&p, align, size == 0 ? align : size) != 0) {
        return nullptr;
    }
    return p;
}

/**
 * The one release path. Kept out of line: a replacement delete inlined
 * into a caller would put free() next to that caller's operator new,
 * which GCC reports as a mismatched pair (-Wmismatched-new-delete).
 */
__attribute__((noinline)) void
countedFree(void *p)
{
    std::free(p);
}

} // namespace

// Counting replacements for every allocating form. Deallocation is
// uncounted (free is alignment-agnostic on this ABI, so one release
// path serves both families).
void *
operator new(std::size_t size)
{
    void *p = countedAlloc(size);
    if (p == nullptr) {
        throw std::bad_alloc();
    }
    return p;
}

void *
operator new[](std::size_t size)
{
    void *p = countedAlloc(size);
    if (p == nullptr) {
        throw std::bad_alloc();
    }
    return p;
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    void *p = countedAlignedAlloc(size, static_cast<std::size_t>(align));
    if (p == nullptr) {
        throw std::bad_alloc();
    }
    return p;
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    void *p = countedAlignedAlloc(size, static_cast<std::size_t>(align));
    if (p == nullptr) {
        throw std::bad_alloc();
    }
    return p;
}

void *
operator new(std::size_t size, std::align_val_t align,
             const std::nothrow_t &) noexcept
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t size, std::align_val_t align,
               const std::nothrow_t &) noexcept
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void
operator delete(void *p) noexcept
{
    countedFree(p);
}
void
operator delete[](void *p) noexcept
{
    countedFree(p);
}
void
operator delete(void *p, std::size_t) noexcept
{
    countedFree(p);
}
void
operator delete[](void *p, std::size_t) noexcept
{
    countedFree(p);
}
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}
void
operator delete(void *p, std::align_val_t) noexcept
{
    countedFree(p);
}
void
operator delete[](void *p, std::align_val_t) noexcept
{
    countedFree(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    countedFree(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    countedFree(p);
}
void
operator delete(void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    countedFree(p);
}
void
operator delete[](void *p, std::align_val_t,
                  const std::nothrow_t &) noexcept
{
    countedFree(p);
}

namespace edgepc {
namespace {

bool
isAligned(const void *p)
{
    return reinterpret_cast<std::uintptr_t>(p) % ScratchArena::kAlignment ==
           0;
}

TEST(ScratchArena, SpansAreAlignedAndDisjoint)
{
    ScratchArena arena;
    const ScratchArena::Frame frame(arena);
    const auto a = arena.alloc<float>(7);
    const auto b = arena.alloc<std::uint64_t>(3);
    const auto c = arena.alloc<std::byte>(1);
    EXPECT_TRUE(isAligned(a.data()));
    EXPECT_TRUE(isAligned(b.data()));
    EXPECT_TRUE(isAligned(c.data()));
    // Spans never overlap even though sizes are rounded up internally.
    EXPECT_GE(reinterpret_cast<std::uintptr_t>(b.data()),
              reinterpret_cast<std::uintptr_t>(a.data() + a.size()));
    EXPECT_GE(reinterpret_cast<std::uintptr_t>(c.data()),
              reinterpret_cast<std::uintptr_t>(b.data() + b.size()));
}

TEST(ScratchArena, FrameRewindsAndRecyclesMemory)
{
    ScratchArena arena;
    float *first = nullptr;
    {
        const ScratchArena::Frame frame(arena);
        first = arena.alloc<float>(100).data();
        EXPECT_GT(arena.usedBytes(), 0u);
    }
    EXPECT_EQ(arena.usedBytes(), 0u);
    const std::uint64_t grows = arena.growCount();
    {
        const ScratchArena::Frame frame(arena);
        // Same block, same offset: the memory is recycled, not freed.
        EXPECT_EQ(arena.alloc<float>(100).data(), first);
    }
    EXPECT_EQ(arena.growCount(), grows);
}

TEST(ScratchArena, FramesNest)
{
    ScratchArena arena;
    const ScratchArena::Frame outer(arena);
    const auto a = arena.alloc<std::uint32_t>(8);
    a[0] = 7;
    const std::size_t used_outer = arena.usedBytes();
    {
        const ScratchArena::Frame inner(arena);
        const auto b = arena.alloc<std::uint32_t>(1024);
        b[0] = 9;
        EXPECT_GT(arena.usedBytes(), used_outer);
    }
    EXPECT_EQ(arena.usedBytes(), used_outer);
    EXPECT_EQ(a[0], 7u); // Outer span untouched by the inner rewind.
}

TEST(ScratchArena, GrowsGeometricallyAndCountsGrowth)
{
    ScratchArena arena;
    EXPECT_EQ(arena.capacityBytes(), 0u);
    EXPECT_EQ(arena.growCount(), 0u);
    const ScratchArena::Frame frame(arena);
    const auto ignored = arena.alloc<float>(16);
    static_cast<void>(ignored);
    EXPECT_EQ(arena.growCount(), 1u);
    const std::size_t first_cap = arena.capacityBytes();
    // Outgrow the first block: one more growth, capacity at least
    // doubles (geometric policy).
    const auto big = arena.alloc<std::byte>(first_cap + 1);
    static_cast<void>(big);
    EXPECT_EQ(arena.growCount(), 2u);
    EXPECT_GE(arena.capacityBytes(), 2 * first_cap);
}

TEST(ScratchArena, ZeroElementSpanIsEmpty)
{
    ScratchArena arena;
    const ScratchArena::Frame frame(arena);
    EXPECT_TRUE(arena.alloc<float>(0).empty());
    EXPECT_EQ(arena.usedBytes(), 0u);
}

TEST(ScratchArenaConcurrency, ThreadLocalArenasAreDistinct)
{
    ScratchArena *main_arena = &ScratchArena::local();
    std::atomic<ScratchArena *> other{nullptr};
    std::thread t([&] { other.store(&ScratchArena::local()); });
    t.join();
    EXPECT_NE(other.load(), nullptr);
    EXPECT_NE(other.load(), main_arena);
}

// Pool workers bump their own arenas concurrently; each index writes a
// distinct pattern and verifies it, so any cross-thread sharing of
// scratch shows up as a data corruption (and as a race under TSan).
TEST(ScratchArenaConcurrency, WorkersStressPrivateArenas)
{
    ThreadPool pool(4);
    std::atomic<std::size_t> bad{0};
    pool.parallelFor(0, 2000, [&](std::size_t i) {
        ScratchArena &arena = ScratchArena::local();
        const ScratchArena::Frame frame(arena);
        const auto span = arena.alloc<std::uint32_t>(64 + i % 64);
        const std::uint32_t tag = static_cast<std::uint32_t>(i);
        for (auto &v : span) {
            v = tag;
        }
        for (const auto v : span) {
            if (v != tag) {
                bad.fetch_add(1);
            }
        }
    });
    EXPECT_EQ(bad.load(), 0u);
}

// The kernels' publication pattern: the caller fills an arena span
// before the parallelFor, workers only read it. The pool's queue mutex
// is the happens-before edge that makes this race-free.
TEST(ScratchArenaConcurrency, CallerSpanIsReadableFromWorkers)
{
    ThreadPool pool(4);
    ScratchArena &arena = ScratchArena::local();
    const ScratchArena::Frame frame(arena);
    const auto shared = arena.alloc<float>(4096);
    for (std::size_t i = 0; i < shared.size(); ++i) {
        shared[i] = static_cast<float>(i);
    }
    std::atomic<std::size_t> bad{0};
    pool.parallelFor(0, shared.size(), [&](std::size_t i) {
        if (shared[i] != static_cast<float>(i)) {
            bad.fetch_add(1);
        }
    });
    EXPECT_EQ(bad.load(), 0u);
}

std::vector<Vec3>
randomCloud(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Vec3> pts(n);
    for (auto &p : pts) {
        p = {rng.nextFloat(), rng.nextFloat(), rng.nextFloat()};
    }
    return pts;
}

/**
 * Allocations a warm kernel call may still perform: the output vector,
 * the parallelFor control block (promise + shared state + task queue
 * nodes) and std::function wrappers — all per *call*, never per query.
 * With kQueries queries, any per-query heap use would blow straight
 * past this.
 */
constexpr std::uint64_t kPerCallAllocBudget = 32;
constexpr std::size_t kQueries = 512;

struct SteadyState
{
    std::uint64_t allocs;
    std::uint64_t grows;
    std::uint64_t bytes;
};

SteadyState
deltaOf(const SteadyState &before)
{
    return {g_heapAllocs.load(std::memory_order_relaxed) - before.allocs,
            ScratchArena::totalGrowCount() - before.grows,
            g_heapBytes.load(std::memory_order_relaxed) - before.bytes};
}

SteadyState
snapshot()
{
    return {g_heapAllocs.load(std::memory_order_relaxed),
            ScratchArena::totalGrowCount(),
            g_heapBytes.load(std::memory_order_relaxed)};
}

/**
 * Give every pool thread's arena (and the caller's) a first block big
 * enough for the kernels below. parallelFor hands chunks to whichever
 * threads wake first, so a worker that sat out the warm-up calls would
 * otherwise grow its arena inside the measured call. Each chunk here
 * waits until all of them have started, so every thread runs exactly
 * one.
 */
void
warmPoolArenas()
{
    constexpr std::size_t kWarmBytes = 1 << 20;
    ThreadPool &pool = ThreadPool::globalPool();
    const std::size_t threads = pool.concurrency();
    std::atomic<std::size_t> started{0};
    pool.parallelFor(
        0, threads,
        [&](std::size_t) {
            ScratchArena &arena = ScratchArena::local();
            const ScratchArena::Frame frame(arena);
            static_cast<void>(arena.alloc<std::byte>(kWarmBytes));
            started.fetch_add(1);
            while (started.load() < threads) {
                std::this_thread::yield();
            }
        },
        1);
}

TEST(ScratchArenaZeroAlloc, BruteForceSteadyState)
{
    const auto pts = randomCloud(2048, 11);
    const auto queries = randomCloud(kQueries, 12);
    BruteForceKnn knn;
    for (int warm = 0; warm < 2; ++warm) {
        const auto ignored = knn.search(queries, pts, 16);
        static_cast<void>(ignored);
    }
    warmPoolArenas();
    const SteadyState before = snapshot();
    const auto out = knn.search(queries, pts, 16);
    const SteadyState delta = deltaOf(before);
    EXPECT_EQ(delta.grows, 0u);
    EXPECT_LE(delta.allocs, kPerCallAllocBudget);
    EXPECT_EQ(out.queries(), kQueries);
}

TEST(ScratchArenaZeroAlloc, BallQuerySteadyState)
{
    const auto pts = randomCloud(2048, 21);
    const auto queries = randomCloud(kQueries, 22);
    BallQuery ball(0.25f);
    for (int warm = 0; warm < 2; ++warm) {
        const auto ignored = ball.search(queries, pts, 16);
        static_cast<void>(ignored);
    }
    warmPoolArenas();
    const SteadyState before = snapshot();
    const auto out = ball.search(queries, pts, 16);
    const SteadyState delta = deltaOf(before);
    EXPECT_EQ(delta.grows, 0u);
    EXPECT_LE(delta.allocs, kPerCallAllocBudget);
    EXPECT_EQ(out.queries(), kQueries);
}

TEST(ScratchArenaZeroAlloc, MortonWindowSteadyState)
{
    const auto pts = randomCloud(2048, 31);
    MortonSampler sampler(32);
    const Structurization s = sampler.structurize(pts);
    const MortonWindowSearch search(64);
    for (int warm = 0; warm < 2; ++warm) {
        const auto ignored = search.searchAll(pts, s, 16);
        static_cast<void>(ignored);
    }
    warmPoolArenas();
    const SteadyState before = snapshot();
    const auto out = search.searchAll(pts, s, 16);
    const SteadyState delta = deltaOf(before);
    EXPECT_EQ(delta.grows, 0u);
    EXPECT_LE(delta.allocs, kPerCallAllocBudget);
    EXPECT_EQ(out.queries(), pts.size());
}

/**
 * The packed GEMM's packing buffers (B panels + per-block A pack) come
 * from the thread-local arena: a warm pointer-API gemm() call touches
 * the heap only for the parallelFor control block, never for scratch.
 * The byte bound is the sharp check — a heap-allocated B pack for this
 * shape alone would be 64 KiB.
 */
TEST(ScratchArenaZeroAlloc, GemmSteadyState)
{
    const std::size_t m = 512, k = 128, n = 128;
    Rng rng(51);
    std::vector<float> a(m * k), b(k * n), c(m * n);
    for (auto &v : a) {
        v = rng.nextFloat();
    }
    for (auto &v : b) {
        v = rng.nextFloat();
    }
    nn::GemmEngine engine(nn::GemmMode::Fast);
    for (int warm = 0; warm < 2; ++warm) {
        engine.gemm(a.data(), b.data(), c.data(), m, k, n);
    }
    warmPoolArenas();
    const SteadyState before = snapshot();
    engine.gemm(a.data(), b.data(), c.data(), m, k, n);
    const SteadyState delta = deltaOf(before);
    EXPECT_EQ(delta.grows, 0u);
    EXPECT_LE(delta.allocs, kPerCallAllocBudget);
    EXPECT_LE(delta.bytes, 16u * 1024u);
}

/**
 * The transpose-free A^T * B variant packs straight from A's columns.
 * Materializing the transpose for this shape would heap-allocate
 * 8 x 4096 floats = 128 KiB; the actual per-call heap traffic is the
 * 8 x 16 result plus control blocks, far under the 64 KiB tripwire.
 */
TEST(ScratchArenaZeroAlloc, TransposedGemmDoesNotMaterializeTranspose)
{
    Rng rng(52);
    nn::Matrix a(4096, 8);  // K x M
    nn::Matrix b(4096, 16); // K x N
    a.fillNormal(rng, 1.0f);
    b.fillNormal(rng, 1.0f);
    nn::GemmEngine engine(nn::GemmMode::Fast);
    for (int warm = 0; warm < 2; ++warm) {
        const auto ignored = engine.multiplyLeftTransposed(a, b);
        static_cast<void>(ignored);
    }
    warmPoolArenas();
    const SteadyState before = snapshot();
    const auto out = engine.multiplyLeftTransposed(a, b);
    const SteadyState delta = deltaOf(before);
    EXPECT_EQ(delta.grows, 0u);
    EXPECT_LT(delta.bytes, 64u * 1024u);
    EXPECT_EQ(out.rows(), 8u);
    EXPECT_EQ(out.cols(), 16u);
}

/**
 * Exact feature-space k-NN streams the query x candidate dot products
 * tile by tile: per-query heaps, norms and packed panels come from the
 * arenas, and no distance matrix exists. A warm call's heap traffic is
 * the output lists plus control blocks; one 512 x 2048 distance matrix
 * (or a 512-row block of one) would be 4 MiB.
 */
TEST(ScratchArenaZeroAlloc, FeatureSpaceKnnSteadyState)
{
    const std::size_t dim = 32, nc = 2048, k = 16;
    Rng rng(61);
    std::vector<float> cands(nc * dim), queries(kQueries * dim);
    for (auto &v : cands) {
        v = rng.normal();
    }
    for (auto &v : queries) {
        v = rng.normal();
    }
    for (int warm = 0; warm < 2; ++warm) {
        const auto ignored =
            BruteForceKnn::searchFeatureSpace(queries, cands, dim, k);
        static_cast<void>(ignored);
    }
    warmPoolArenas();
    const SteadyState before = snapshot();
    const auto out = BruteForceKnn::searchFeatureSpace(queries, cands, dim, k);
    const SteadyState delta = deltaOf(before);
    EXPECT_EQ(delta.grows, 0u);
    EXPECT_LE(delta.allocs, kPerCallAllocBudget);
    EXPECT_LE(delta.bytes,
              kQueries * k * sizeof(std::uint32_t) + 16u * 1024u);
    EXPECT_EQ(out.queries(), kQueries);
}

TEST(ScratchArenaZeroAlloc, FpsSteadyState)
{
    const auto pts = randomCloud(2048, 41);
    FarthestPointSampler fps;
    for (int warm = 0; warm < 2; ++warm) {
        const auto ignored = fps.sample(pts, 256);
        static_cast<void>(ignored);
    }
    warmPoolArenas();
    const SteadyState before = snapshot();
    const auto out = fps.sample(pts, 256);
    const SteadyState delta = deltaOf(before);
    EXPECT_EQ(delta.grows, 0u);
    EXPECT_LE(delta.allocs, kPerCallAllocBudget);
    EXPECT_EQ(out.size(), 256u);
}

/**
 * One inference pass of a Linear -> BatchNorm -> ReLU -> neighbor
 * max-pool block (DESIGN.md §17): the GEMM output is the only matrix
 * the block allocates, BatchNorm + ReLU run in place on it and the pool
 * reads the raw rows before normalizing only the pooled ones. The
 * column statistics live in the arena. Heap traffic is therefore the
 * GEMM output plus the pooled output plus control blocks; one more
 * activation-sized matrix would be 2 MiB here.
 */
TEST(ScratchArenaZeroAlloc, FusedTailBlockSteadyState)
{
    const std::size_t groups = 512, k = 16, in = 32, out = 64;
    Rng rng(61);
    nn::Sequential block;
    block.addLinearBnRelu(in, out, rng);
    nn::Matrix x(groups * k, in);
    x.fillNormal(rng, 1.0f);
    const std::size_t rows[] = {groups * k};
    const std::size_t ks[] = {k};
    for (int warm = 0; warm < 2; ++warm) {
        const auto ignored = block.forwardPooled(x, rows, ks);
        static_cast<void>(ignored);
    }
    nn::Matrix owned = x;
    warmPoolArenas();
    const SteadyState before = snapshot();
    const auto pooled = block.forwardPooled(std::move(owned), rows, ks);
    const SteadyState delta = deltaOf(before);
    EXPECT_EQ(delta.grows, 0u);
    EXPECT_LE(delta.allocs, kPerCallAllocBudget);
    EXPECT_LE(delta.bytes, (groups * k * out + groups * out) * sizeof(float) +
                               16u * 1024u);
    ASSERT_EQ(pooled.size(), 1u);
    EXPECT_EQ(pooled[0].rows(), groups);
}

/**
 * A steady-state DGCNN lite-seg frame: no single heap block reaches
 * the n x (concat + embedding) floats of the materialized
 * [concat | broadcast(pooled)] head operand (DESIGN.md §18). The
 * largest block left is an embedding-width activation.
 */
TEST(ScratchArenaZeroAlloc, DgcnnSegHeadBuildsNoBroadcastOperand)
{
    // The fp32 route: int8 (EDGEPC_GEMM=int8) quantizes a materialized
    // operand by design.
    const nn::QuantMode quant = nn::quantGemmMode();
    nn::setQuantGemmMode(nn::QuantMode::Off);
    const std::size_t n = 1024;
    const DgcnnConfig cfg = DgcnnConfig::liteSegmentation(5);
    Dgcnn model(cfg, 7);
    Rng rng(71);
    ShapeOptions options;
    options.points = n;
    const PointCloud cloud = makeShape(ShapeClass::Torus, options, rng);
    const EdgePcConfig config = EdgePcConfig::snf();
    for (int warm = 0; warm < 2; ++warm) {
        const auto ignored = model.infer(cloud, config);
        static_cast<void>(ignored);
    }
    std::size_t concat = 0;
    for (const std::size_t width : cfg.ecWidths) {
        concat += width;
    }
    warmPoolArenas();
    g_heapMaxBlock.store(0);
    const SteadyState before = snapshot();
    const nn::Matrix logits = model.infer(cloud, config);
    const SteadyState delta = deltaOf(before);
    EXPECT_EQ(delta.grows, 0u);
    EXPECT_LT(g_heapMaxBlock.load(),
              n * (concat + cfg.embeddingDim) * sizeof(float));
    EXPECT_EQ(logits.rows(), n);
    nn::setQuantGemmMode(quant);
}

/**
 * A steady-state DGCNN frame streams its embedding GEMM into the
 * global max-pool (DESIGN.md §19): no single heap block reaches the
 * n x embeddingDim floats of the stored embedding. The lite configs
 * get a 512-wide embedding, so that matrix would be the frame's
 * largest block by far.
 */
void
expectNoEmbeddingMatrix(DgcnnConfig cfg)
{
    const nn::QuantMode quant = nn::quantGemmMode();
    nn::setQuantGemmMode(nn::QuantMode::Off);
    const std::size_t n = 1024;
    cfg.embeddingDim = 512;
    Dgcnn model(cfg, 7);
    Rng rng(72);
    ShapeOptions options;
    options.points = n;
    const PointCloud cloud = makeShape(ShapeClass::Torus, options, rng);
    const EdgePcConfig config = EdgePcConfig::snf();
    for (int warm = 0; warm < 2; ++warm) {
        const auto ignored = model.infer(cloud, config);
        static_cast<void>(ignored);
    }
    warmPoolArenas();
    g_heapMaxBlock.store(0);
    const SteadyState before = snapshot();
    const nn::Matrix logits = model.infer(cloud, config);
    const SteadyState delta = deltaOf(before);
    EXPECT_EQ(delta.grows, 0u);
    EXPECT_LT(g_heapMaxBlock.load(), n * cfg.embeddingDim * sizeof(float));
    EXPECT_EQ(logits.cols(), cfg.numClasses);
    nn::setQuantGemmMode(quant);
}

TEST(ScratchArenaZeroAlloc, DgcnnClsStoresNoEmbeddingMatrix)
{
    expectNoEmbeddingMatrix(DgcnnConfig::liteClassification(8));
}

TEST(ScratchArenaZeroAlloc, DgcnnSegStoresNoEmbeddingMatrix)
{
    expectNoEmbeddingMatrix(DgcnnConfig::liteSegmentation(5));
}

} // namespace
} // namespace edgepc
