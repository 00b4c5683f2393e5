/**
 * @file
 * Read-before-write check for uninitialized matrices (DESIGN.md §18).
 *
 * This binary replaces the global operator new so that every fresh
 * heap block is filled with a chosen byte before the caller sees it.
 * A model frame run with blocks full of NaN (0xFF bytes) or of a huge
 * finite value (0x5A bytes) must give the same logits as a run with
 * zero-filled blocks: any element read before it was written would
 * carry the fill into the logits. Two poisons are needed because a
 * max-pool skips a NaN and a ReLU clamps it, while the finite value
 * passes through both. It is its own binary because a replaced
 * operator new is process-wide.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>

#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "core/workloads.hpp"
#include "datasets/shapes.hpp"
#include "models/dgcnn.hpp"
#include "models/pointnet.hpp"

namespace {

std::atomic<int> g_fillByte{0};

void *
filledAlloc(std::size_t size, std::size_t align)
{
    if (size == 0) {
        size = 1;
    }
    void *p = nullptr;
    if (align <= alignof(std::max_align_t)) {
        p = std::malloc(size);
    } else if (posix_memalign(&p, align, size) != 0) {
        p = nullptr;
    }
    if (p != nullptr) {
        std::memset(p, g_fillByte.load(std::memory_order_relaxed), size);
    }
    return p;
}

void *
filledAllocOrThrow(std::size_t size, std::size_t align)
{
    void *p = filledAlloc(size, align);
    if (p == nullptr) {
        throw std::bad_alloc();
    }
    return p;
}

/** Out of line for the same reason as in test_scratch_arena.cpp:
    GCC pairs an inlined free() with the caller's operator new. */
__attribute__((noinline)) void
release(void *p)
{
    std::free(p);
}

} // namespace

void *
operator new(std::size_t size)
{
    return filledAllocOrThrow(size, 0);
}
void *
operator new[](std::size_t size)
{
    return filledAllocOrThrow(size, 0);
}
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return filledAlloc(size, 0);
}
void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return filledAlloc(size, 0);
}
void *
operator new(std::size_t size, std::align_val_t align)
{
    return filledAllocOrThrow(size, static_cast<std::size_t>(align));
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return filledAllocOrThrow(size, static_cast<std::size_t>(align));
}
void *
operator new(std::size_t size, std::align_val_t align,
             const std::nothrow_t &) noexcept
{
    return filledAlloc(size, static_cast<std::size_t>(align));
}
void *
operator new[](std::size_t size, std::align_val_t align,
               const std::nothrow_t &) noexcept
{
    return filledAlloc(size, static_cast<std::size_t>(align));
}

void
operator delete(void *p) noexcept
{
    release(p);
}
void
operator delete[](void *p) noexcept
{
    release(p);
}
void
operator delete(void *p, std::size_t) noexcept
{
    release(p);
}
void
operator delete[](void *p, std::size_t) noexcept
{
    release(p);
}
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    release(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    release(p);
}
void
operator delete(void *p, std::align_val_t) noexcept
{
    release(p);
}
void
operator delete[](void *p, std::align_val_t) noexcept
{
    release(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    release(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    release(p);
}
void
operator delete(void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    release(p);
}
void
operator delete[](void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    release(p);
}

namespace edgepc {
namespace {

constexpr int kNanByte = 0xFF;
constexpr int kFiniteByte = 0x5A;

/**
 * One frame of a freshly built model per configuration, every heap
 * block filled with @p fill_byte. A fresh model per run means its
 * weights and caches are fresh blocks too.
 */
template <class MakeModel>
std::vector<nn::Matrix>
framesWithFill(int fill_byte, const MakeModel &make_model,
               const PointCloud &cloud)
{
    g_fillByte.store(fill_byte, std::memory_order_relaxed);
    std::vector<nn::Matrix> logits;
    for (const EdgePcConfig &cfg :
         {EdgePcConfig::baseline(), EdgePcConfig::snf()}) {
        const std::unique_ptr<PointCloudModel> model = make_model();
        InferencePipeline pipeline(*model, cfg);
        logits.push_back(pipeline.run(cloud).logits);
    }
    g_fillByte.store(0, std::memory_order_relaxed);
    return logits;
}

template <class MakeModel>
void
expectFillIndependent(const MakeModel &make_model, const PointCloud &cloud)
{
    // Poisoned runs first, so the thread-local scratch arenas' first
    // blocks are poisoned too.
    const auto nan_run = framesWithFill(kNanByte, make_model, cloud);
    const auto finite_run = framesWithFill(kFiniteByte, make_model, cloud);
    const auto zero_run = framesWithFill(0, make_model, cloud);
    ASSERT_EQ(nan_run.size(), zero_run.size());
    for (std::size_t c = 0; c < zero_run.size(); ++c) {
        const nn::Matrix &want = zero_run[c];
        for (const nn::Matrix *got : {&nan_run[c], &finite_run[c]}) {
            ASSERT_EQ(got->rows(), want.rows());
            ASSERT_EQ(got->cols(), want.cols());
            for (std::size_t i = 0; i < want.numel(); ++i) {
                ASSERT_EQ(got->data()[i], want.data()[i])
                    << "config " << c << " element " << i;
            }
        }
    }
}

PointCloud
torus(std::size_t points, std::uint64_t seed)
{
    Rng rng(seed);
    ShapeOptions options;
    options.points = points;
    return makeShape(ShapeClass::Torus, options, rng);
}

TEST(UninitializedReads, W1LiteLogitsMatchZeroFilledRun)
{
    constexpr std::size_t kScale = 16;
    const WorkloadSpec &spec = workload("W1");
    expectFillIndependent(
        [&] { return makeWorkloadModel(spec, kScale); },
        makeWorkloadCloud(spec, kScale));
}

TEST(UninitializedReads, DgcnnLiteSegLogitsMatchZeroFilledRun)
{
    expectFillIndependent(
        [] {
            return std::make_unique<Dgcnn>(DgcnnConfig::liteSegmentation(5),
                                           7);
        },
        torus(300, 41));
}

TEST(UninitializedReads, PointNetSegLogitsMatchZeroFilledRun)
{
    expectFillIndependent(
        [] {
            return std::make_unique<PointNet>(
                PointNetConfig::segmentationConfig(5), 7);
        },
        torus(300, 42));
}

} // namespace
} // namespace edgepc
