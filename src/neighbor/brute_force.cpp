#include "neighbor/brute_force.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <immintrin.h>
#include <limits>
#include <string_view>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/scratch_arena.hpp"
#include "common/thread_pool.hpp"
#include "geometry/simd_distance.hpp"
#include "neighbor/kheap.hpp"
#include "nn/gemm.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pointcloud/points_soa.hpp"

namespace edgepc {

namespace {

/// Candidates are masked against the current k-th distance in blocks of
/// this many precomputed distances before touching the heap.
constexpr std::size_t kMaskChunk = 256;

/// Largest squared norm the feature-space filter's rounding bound
/// covers (DESIGN.md §16). A row above it, or with a NaN/Inf feature,
/// is never filtered: all its pairs take the exact re-check. At 2^100
/// no norm, dot product or distance (all <= (|q| + |c|)^2 <= 2^102)
/// comes near float overflow.
constexpr double kFilterNormLimit = 0x1p100;

/// Absolute floor of the filter margin: covers the underflow of tiny
/// products (at most 2^-150 each) when every feature is near zero.
constexpr double kMarginFloor = 0x1p-120;

/** Exact feature-space distance: the rounding every filter decision
 *  is proven against, so it must stay this plain in-order loop. */
float
featureDistance(const float *a, const float *b, std::size_t dim)
{
    float dist = 0.0f;
    for (std::size_t d = 0; d < dim; ++d) {
        const float diff = a[d] - b[d];
        dist += diff * diff;
    }
    return dist;
}

float
sumSquares(const float *row, std::size_t dim)
{
    float sum = 0.0f;
    for (std::size_t d = 0; d < dim; ++d) {
        sum += row[d] * row[d];
    }
    return sum;
}

/** Squared norm in double: the margin's |x|, and the NaN/Inf/overflow
 *  screen (any non-finite feature makes it fail `<= limit`). */
double
sumSquaresWide(const float *row, std::size_t dim)
{
    double sum = 0.0;
    for (std::size_t d = 0; d < dim; ++d) {
        sum += static_cast<double>(row[d]) * static_cast<double>(row[d]);
    }
    return sum;
}

/** Lanes of one tile row whose key |c|^2 - 2 q.c is not >= the
 *  threshold (NaN keys and a NaN threshold always pass). */
std::uint32_t
passMask(const float *norms, const float *acc, std::size_t cols,
         float threshold)
{
    std::uint32_t pass = 0;
    for (std::size_t j = 0; j < cols; ++j) {
        const float key = norms[j] - 2.0f * acc[j];
        pass |= static_cast<std::uint32_t>(!(key >= threshold)) << j;
    }
    return pass;
}

/** passMask over a full 16-lane tile row, same keys, AVX2 compares. */
__attribute__((target("avx2"))) std::uint32_t
passMaskAvx2(const float *norms, const float *acc, float threshold)
{
    const __m256 thr = _mm256_set1_ps(threshold);
    const __m256 a0 = _mm256_load_ps(acc);
    const __m256 a1 = _mm256_load_ps(acc + 8);
    const __m256 k0 = _mm256_sub_ps(_mm256_loadu_ps(norms),
                                    _mm256_add_ps(a0, a0));
    const __m256 k1 = _mm256_sub_ps(_mm256_loadu_ps(norms + 8),
                                    _mm256_add_ps(a1, a1));
    const int m0 = _mm256_movemask_ps(_mm256_cmp_ps(k0, thr, _CMP_NGE_UQ));
    const int m1 = _mm256_movemask_ps(_mm256_cmp_ps(k1, thr, _CMP_NGE_UQ));
    return static_cast<std::uint32_t>(m0) |
           (static_cast<std::uint32_t>(m1) << 8);
}

/** Per-query state of the feature-space filter. */
struct FeatureQuery
{
    KHeap heap;
    /** |q|^2 in float: the filter compares |c|^2 - 2 q.c against
     *  (k-th distance - |q|^2 + margin). */
    float norm;
    /** kappa (|q| + max|c|)^2, or NaN for an unfiltered row. */
    double margin;
    /** Current mask threshold; NaN lets every lane through. */
    float threshold;
    std::uint32_t rechecks;
};

/**
 * Mask threshold of one query: current k-th distance - |q|^2 + margin,
 * rounded up to float so the float compare rejects no more than the
 * bound allows. NaN while the heap is filling (every candidate is
 * admitted then) and for unfiltered rows.
 */
float
filterThreshold(const FeatureQuery &fq)
{
    if (!fq.heap.full()) {
        return std::numeric_limits<float>::quiet_NaN();
    }
    const double t = static_cast<double>(fq.heap.worst()) -
                     static_cast<double>(fq.norm) + fq.margin;
    if (std::isnan(t)) {
        return std::numeric_limits<float>::quiet_NaN();
    }
    if (t >= static_cast<double>(std::numeric_limits<float>::max())) {
        return std::numeric_limits<float>::infinity();
    }
    float f = static_cast<float>(t);
    if (static_cast<double>(f) < t) {
        f = std::nextafter(f, std::numeric_limits<float>::infinity());
    }
    return f;
}

/**
 * Consumer of the streamed query x candidate dot-product tiles
 * (DESIGN.md §16). A lane passes the mask unless its key
 * |c|^2 - 2 q.c is >= the row's threshold; a rejected lane provably
 * has an exact distance >= the current k-th one, which KHeap's strict
 * `<` would refuse anyway. Passing lanes get the exact distance and
 * are pushed in ascending candidate order, so each heap sees exactly
 * the admissions of a plain in-order scan.
 */
struct FeatureFilter
{
    const float *queries;
    const float *candidates;
    std::size_t dim;
    std::size_t nc;
    std::size_t k;
    /** |c|^2 per candidate; NaN for candidates outside the bound. */
    const float *keyNorms;
    double maxNorm;
    double kappa;
    /** AVX2 tile mask (the route that runs the FMA microkernel). */
    bool fast;
    FeatureQuery *rows;
    KHeap::Key *keys;
    std::uint32_t *out;

    void consume(const nn::GemmTile &tile) const
    {
        for (std::size_t r = 0; r < tile.rows; ++r) {
            const std::size_t q = tile.row + r;
            const float *qrow = queries + q * dim;
            FeatureQuery &fq = rows[q];
            if (tile.col == 0) {
                const double exact = sumSquaresWide(qrow, dim);
                const double spread = std::sqrt(exact) + maxNorm;
                fq = FeatureQuery{
                    KHeap({keys + q * k, k}), sumSquares(qrow, dim),
                    exact <= kFilterNormLimit
                        ? kappa * (spread * spread + kMarginFloor)
                        : std::numeric_limits<double>::quiet_NaN(),
                    std::numeric_limits<float>::quiet_NaN(), 0};
            }
            const float *acc = tile.acc + r * nn::GemmTile::kCols;
            std::uint32_t pass =
                fast && tile.cols == nn::GemmTile::kCols
                    ? passMaskAvx2(keyNorms + tile.col, acc, fq.threshold)
                    : passMask(keyNorms + tile.col, acc, tile.cols,
                               fq.threshold);
            if (pass != 0) {
                fq.rechecks +=
                    static_cast<std::uint32_t>(std::popcount(pass));
                // EDGEPC_HOT: exact re-check in ascending candidate
                // order, as in a plain scan.
                while (pass != 0) {
                    const std::size_t c =
                        tile.col +
                        static_cast<std::size_t>(std::countr_zero(pass));
                    pass &= pass - 1;
                    fq.heap.push(
                        featureDistance(qrow, candidates + c * dim, dim),
                        static_cast<std::uint32_t>(c));
                }
                fq.threshold = filterThreshold(fq);
            }
            if (tile.col + tile.cols == nc) {
                const auto row = fq.heap.finish();
                for (std::size_t j = 0; j < k; ++j) {
                    out[q * k + j] = KHeap::indexOf(row[j]);
                }
            }
        }
    }
};

} // namespace

NeighborLists
BruteForceKnn::search(std::span<const Vec3> queries,
                      std::span<const Vec3> candidates, std::size_t k)
{
    EDGEPC_TRACE_SCOPE("brute-force", "neighbor");
    static obs::Counter &qcount = obs::MetricsRegistry::global().counter(
        "neighbor.brute-force.queries");
    qcount.add(queries.size());
    if (candidates.empty() || k == 0) {
        raise(ErrorCode::EmptyCloud, "BruteForceKnn: empty candidate set or k == 0");
    }
    k = std::min(k, candidates.size());
    simd::recordDispatch();

    NeighborLists out;
    out.k = k;
    out.indices.resize(queries.size() * k);

    // The SoA is built once on the calling thread; worker threads only
    // read it (the task queue publication orders those reads).
    ScratchArena &caller_arena = ScratchArena::local();
    const ScratchArena::Frame frame(caller_arena);
    const PointsSoA soa(candidates, caller_arena);
    const std::size_t nc = candidates.size();

    // Fixed-point route (DESIGN.md §15): neighbors rank by exact
    // integer grid distance instead of fp32 distance. Opt-in only
    // (Auto resolves Off for k-NN) — see resolveFixedPointKnn.
    PointsFixed fixed;
    bool use_fixed = false;
    if (simd::resolveFixedPointKnn(fixedMode)) {
        fixed = PointsFixed(soa, caller_arena);
        use_fixed = fixed.valid();
    }
    if (use_fixed) {
        simd::recordFixedDispatch(queries.size());
    }

    // EDGEPC_HOT: per-query scan — arena scratch only, no allocation.
    parallelFor(0, queries.size(), [&](std::size_t q) {
        ScratchArena &arena = ScratchArena::local();
        const ScratchArena::Frame qframe(arena);
        const std::span<float> dist = arena.alloc<float>(nc);
        const std::span<std::uint64_t> mask =
            arena.alloc<std::uint64_t>(simd::maskWords(kMaskChunk));
        if (use_fixed) {
            std::int16_t fqx = 0, fqy = 0, fqz = 0;
            fixed.quantizeQuery(queries[q], fqx, fqy, fqz);
            simd::batchSqDistFixed(fixed.xy(), fixed.zw(), nc, fqx, fqy,
                                   fqz, dist.data());
        } else {
            simd::batchSqDist(soa.xs(), soa.ys(), soa.zs(), nc,
                              queries[q], dist.data());
        }
        KHeap heap(arena.alloc<KHeap::Key>(k));
        admitMasked(heap, dist.data(), nc, mask.data(), kMaskChunk,
                    [](std::size_t i) {
                        return static_cast<std::uint32_t>(i);
                    });
        const auto row = heap.finish();
        for (std::size_t j = 0; j < k; ++j) {
            out.indices[q * k + j] = KHeap::indexOf(row[j]);
        }
    });
    return out;
}

NeighborLists
BruteForceKnn::searchFeatureSpace(std::span<const float> queries,
                                  std::span<const float> candidates,
                                  std::size_t dim, std::size_t k)
{
    EDGEPC_TRACE_SCOPE("knn-feature", "neighbor");
    static obs::Counter &qcount = obs::MetricsRegistry::global().counter(
        "neighbor.knn-feature.queries");
    static obs::Counter &recheckCount =
        obs::MetricsRegistry::global().counter(
            "neighbor.knn-feature.rechecks");
    if (dim == 0 || candidates.empty()) {
        raise(ErrorCode::EmptyCloud, "searchFeatureSpace: empty candidates or dim == 0");
    }
    const std::size_t nq = queries.size() / dim;
    const std::size_t nc = candidates.size() / dim;
    k = std::min(k, nc);
    qcount.add(nq);

    NeighborLists out;
    out.k = k;
    out.indices.resize(nq * k);
    if (nq == 0 || k == 0) {
        return out;
    }

    // The route is the GEMM build the tile stream runs; its span name
    // records it, and the AVX2 tile mask rides along with it.
    const bool fast = std::string_view(nn::GemmEngine::activeKernelName()) ==
                      "avx2-fma";
    EDGEPC_TRACE_SCOPE(fast ? "knn-feature.fast" : "knn-feature.scalar",
                       "neighbor");
    ScratchArena &arena = ScratchArena::local();
    const ScratchArena::Frame frame(arena);
    const std::span<float> keyNorms = arena.alloc<float>(nc);
    double maxNormSq = 0.0;
    for (std::size_t c = 0; c < nc; ++c) {
        const float *crow = candidates.data() + c * dim;
        const double exact = sumSquaresWide(crow, dim);
        if (exact <= kFilterNormLimit) {
            keyNorms[c] = sumSquares(crow, dim);
            maxNormSq = std::max(maxNormSq, exact);
        } else {
            // Outside the proven bound: a NaN key passes every mask.
            keyNorms[c] = std::numeric_limits<float>::quiet_NaN();
        }
    }
    const FeatureFilter filter{queries.data(),
                               candidates.data(),
                               dim,
                               nc,
                               k,
                               keyNorms.data(),
                               std::sqrt(maxNormSq),
                               2.0 * static_cast<double>(dim + 4) * 0x1p-24,
                               fast,
                               arena.alloc<FeatureQuery>(nq).data(),
                               arena.alloc<KHeap::Key>(nq * k).data(),
                               out.indices.data()};
    nn::GemmEngine::streamTransposedTiles(
        queries.data(), nq, candidates.data(), nc, dim,
        [&filter](const nn::GemmTile &tile) { filter.consume(tile); });
    std::uint64_t rechecks = 0;
    for (std::size_t q = 0; q < nq; ++q) {
        rechecks += filter.rows[q].rechecks;
    }
    recheckCount.add(rechecks);
    return out;
}

} // namespace edgepc
