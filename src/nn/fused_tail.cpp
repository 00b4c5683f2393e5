#include "nn/fused_tail.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "common/scratch_arena.hpp"
#include "common/thread_pool.hpp"
#include "obs/trace.hpp"

namespace edgepc {
namespace nn {

namespace {

/** Columns one pool or statistics sub-block keeps on the stack. */
constexpr std::size_t kColBlock = 64;

/** Rows of a dense row-major block. */
struct DenseRows
{
    const float *base;
    std::size_t cols;
    const float *row(std::size_t r) const { return base + r * cols; }
};

/** Rows of a delayed EdgeConv block: row i*k + j = psi[i] + phi[nbr]. */
struct EdgeRows
{
    struct Row
    {
        const float *self;
        const float *other;
        float operator[](std::size_t c) const { return self[c] + other[c]; }
    };
    const float *psi;
    const float *phi;
    const std::uint32_t *indices;
    std::size_t k;
    std::size_t cols;
    Row row(std::size_t r) const
    {
        return {psi + (r / k) * cols, phi + std::size_t(indices[r]) * cols};
    }
};

/** Per-segment tail coefficients over all columns; mean/inv are null
    when the tail has no BatchNorm. */
struct Coeffs
{
    const float *mean;
    const float *inv;
    const float *gamma;
    const float *beta;
    float slope;
};

/** Segment @p s's coefficients (mean/inv hold every segment's). */
Coeffs
coeffsOf(const TailNorm *norm, std::span<const float> mean,
         std::span<const float> inv, std::size_t s, std::size_t cols,
         Activation act)
{
    if (norm == nullptr) {
        return Coeffs{nullptr, nullptr, nullptr, nullptr, act.slope};
    }
    return Coeffs{mean.data() + s * cols, inv.data() + s * cols, norm->gamma,
                  norm->beta, act.slope};
}

/** Prefix sums of @p counts into @p starts (counts.size() + 1 entries). */
void
prefixSums(std::span<const std::size_t> counts, std::span<std::size_t> starts)
{
    starts[0] = 0;
    for (std::size_t s = 0; s < counts.size(); ++s) {
        starts[s + 1] = starts[s] + counts[s];
    }
}

/** The segment whose [starts[s], starts[s+1]) range holds @p i. */
std::size_t
segmentAt(std::span<const std::size_t> starts, std::size_t i)
{
    return static_cast<std::size_t>(
        std::upper_bound(starts.begin(), starts.end(), i) - starts.begin() -
        1);
}

template <bool Norm, Activation::Kind K>
void
tailSpan(float *x, std::size_t w, const Coeffs &k, std::size_t c0)
{
    const float *mean = Norm ? k.mean + c0 : nullptr;
    const float *inv = Norm ? k.inv + c0 : nullptr;
    const float *g = Norm ? k.gamma + c0 : nullptr;
    const float *b = Norm ? k.beta + c0 : nullptr;
    const float slope = k.slope;
    // EDGEPC_HOT: branch-free normalize + activate, in place.
    for (std::size_t c = 0; c < w; ++c) {
        float y = x[c];
        if constexpr (Norm) {
            y = g[c] * ((y - mean[c]) * inv[c]) + b[c];
        }
        if constexpr (K == Activation::Kind::Relu) {
            y = y > 0.0f ? y : 0.0f;
        } else if constexpr (K == Activation::Kind::LeakyRelu) {
            const float neg = y * slope;
            y = y > 0.0f ? y : neg;
        }
        x[c] = y;
    }
}

using TailFn = void (*)(float *, std::size_t, const Coeffs &, std::size_t);

template <bool Norm>
TailFn
tailFor(Activation::Kind kind)
{
    switch (kind) {
      case Activation::Kind::Relu:
        return &tailSpan<Norm, Activation::Kind::Relu>;
      case Activation::Kind::LeakyRelu:
        return &tailSpan<Norm, Activation::Kind::LeakyRelu>;
      case Activation::Kind::Identity:
        break;
    }
    return &tailSpan<Norm, Activation::Kind::Identity>;
}

TailFn
tailFor(const TailNorm *norm, Activation act)
{
    return norm != nullptr ? tailFor<true>(act.kind)
                           : tailFor<false>(act.kind);
}

/**
 * Mean and biased variance of columns [c_lo, c_hi) over @p rows rows,
 * each column summed in row order, exactly like the serial
 * mean[c] += x and var[c] += d*d loops.
 */
template <class Rows>
void
statsColumns(const Rows &src, std::size_t rows, std::size_t c_lo,
             std::size_t c_hi, float *mean, float *var)
{
    const float inv_rows = 1.0f / static_cast<float>(rows);
    for (std::size_t c0 = c_lo; c0 < c_hi; c0 += kColBlock) {
        const std::size_t w = std::min(kColBlock, c_hi - c0);
        float m[kColBlock] = {};
        float v[kColBlock] = {};
        // EDGEPC_HOT: column sums, rows in order.
        for (std::size_t r = 0; r < rows; ++r) {
            const auto row = src.row(r);
            for (std::size_t c = 0; c < w; ++c) {
                m[c] += row[c0 + c];
            }
        }
        for (std::size_t c = 0; c < w; ++c) {
            m[c] *= inv_rows;
        }
        // EDGEPC_HOT: centred squares, rows in order.
        for (std::size_t r = 0; r < rows; ++r) {
            const auto row = src.row(r);
            for (std::size_t c = 0; c < w; ++c) {
                const float d = row[c0 + c] - m[c];
                v[c] += d * d;
            }
        }
        for (std::size_t c = 0; c < w; ++c) {
            mean[c0 + c] = m[c];
            var[c0 + c] = v[c] * inv_rows;
        }
    }
}

/** Width of one statistics task: every thread gets a column range. */
std::size_t
statsWidth(std::size_t cols)
{
    const std::size_t threads = ThreadPool::globalPool().concurrency();
    const std::size_t per = (cols + threads - 1) / threads;
    return std::clamp<std::size_t>((per + 7) / 8 * 8, 8, kColBlock);
}

/**
 * Per-segment mean and inverse standard deviation (segment s at
 * offset s * cols): instance statistics for multi-row segments, the
 * running statistics for single rows. Parallel over segments x column
 * ranges. @p rows_of(s) gives segment s's rows.
 */
template <class RowsOf>
void
segmentCoeffs(const RowsOf &rows_of, std::span<const std::size_t> seg_rows,
              std::size_t cols, const TailNorm &norm, float *mean,
              float *inv)
{
    const std::size_t width = statsWidth(cols);
    const std::size_t ranges = (cols + width - 1) / width;
    parallelFor(
        0, seg_rows.size() * ranges,
        [&](std::size_t t) {
            const std::size_t s = t / ranges;
            const std::size_t c_lo = (t % ranges) * width;
            const std::size_t c_hi = std::min(cols, c_lo + width);
            float *m = mean + s * cols;
            float *v = inv + s * cols;
            if (seg_rows[s] > 1) {
                statsColumns(rows_of(s), seg_rows[s], c_lo, c_hi, m, v);
            } else {
                std::copy(norm.runningMean + c_lo, norm.runningMean + c_hi,
                          m + c_lo);
                std::copy(norm.runningVar + c_lo, norm.runningVar + c_hi,
                          v + c_lo);
            }
            for (std::size_t c = c_lo; c < c_hi; ++c) {
                v[c] = 1.0f / std::sqrt(v[c] + norm.eps);
            }
        },
        1);
}

/**
 * True when pooling the raw rows before the tail gives the tail's
 * pooled values: every rounded step must be weakly monotone in x on
 * the segment's values (DESIGN.md §17). With BatchNorm that needs a
 * finite positive inv (then the segment has no NaN and every
 * (x - mean) * inv is finite, so even gamma == 0 maps the group to one
 * value) and a finite gamma and beta. Without it, a ReLU maps NaN to 0
 * while the pool skips NaN, so it pools last.
 */
bool
poolFirstExact(const TailNorm *norm, Activation act, const Coeffs &k,
               std::size_t cols)
{
    if (act.kind == Activation::Kind::LeakyRelu &&
        !(act.slope > 0.0f && std::isfinite(act.slope))) {
        return false;
    }
    if (norm == nullptr) {
        return act.kind != Activation::Kind::Relu;
    }
    for (std::size_t c = 0; c < cols; ++c) {
        const bool ok = std::isfinite(k.inv[c]) && k.inv[c] > 0.0f &&
                        std::isfinite(k.gamma[c]) && std::isfinite(k.beta[c]);
        if (!ok) {
            return false;
        }
    }
    return true;
}

/**
 * Pool one group's columns [c_lo, c_hi) into @p dst (the output row).
 * Pool-first: per column the raw max (gamma >= 0 or no BatchNorm) or
 * min (gamma < 0), then the tail on that one value. Otherwise the
 * reference order: the tail on every row, then the max (first row
 * kept on ties, NaN never replaces a value).
 */
template <class Rows>
void
poolGroup(const Rows &src, std::size_t first, std::size_t k,
          std::size_t c_lo, std::size_t c_hi, bool pool_first,
          TailFn tail, const Coeffs &co, float *dst)
{
    for (std::size_t c0 = c_lo; c0 < c_hi; c0 += kColBlock) {
        const std::size_t w = std::min(kColBlock, c_hi - c0);
        float hi[kColBlock];
        float lo[kColBlock];
        const auto row0 = src.row(first);
        for (std::size_t c = 0; c < w; ++c) {
            hi[c] = row0[c0 + c];
        }
        if (pool_first) {
            std::copy(hi, hi + w, lo);
            // EDGEPC_HOT: raw per-column max and min over the group.
            for (std::size_t j = 1; j < k; ++j) {
                const auto row = src.row(first + j);
                for (std::size_t c = 0; c < w; ++c) {
                    const float v = row[c0 + c];
                    hi[c] = v > hi[c] ? v : hi[c];
                    lo[c] = v < lo[c] ? v : lo[c];
                }
            }
            const float *g = co.gamma;
            for (std::size_t c = 0; c < w; ++c) {
                const bool decreasing = g != nullptr && g[c0 + c] < 0.0f;
                dst[c0 + c] = decreasing ? lo[c] : hi[c];
            }
            tail(dst + c0, w, co, c0);
            continue;
        }
        tail(hi, w, co, c0);
        for (std::size_t j = 1; j < k; ++j) {
            const auto row = src.row(first + j);
            for (std::size_t c = 0; c < w; ++c) {
                lo[c] = row[c0 + c];
            }
            tail(lo, w, co, c0);
            for (std::size_t c = 0; c < w; ++c) {
                hi[c] = lo[c] > hi[c] ? lo[c] : hi[c];
            }
        }
        std::copy(hi, hi + w, dst + c0);
    }
}

/**
 * The pooled tail over segments of @p rows_of(s) rows, each pooled in
 * groups of group_k[s] rows into out[s]. Tasks are (group, column
 * range) pairs over all segments, so a single large group (a global
 * pool) still spreads over the pool's threads.
 */
template <class RowsOf>
void
tailPool(const RowsOf &rows_of, std::span<const std::size_t> seg_rows,
         std::span<const std::size_t> group_k, std::size_t cols,
         const TailNorm *norm, Activation act, std::span<Matrix> out)
{
    EDGEPC_TRACE_SCOPE("bn-act.pooled", "nn");
    const std::size_t nseg = seg_rows.size();
    if (group_k.size() != nseg || out.size() != nseg) {
        fatal("fusedTailPool: %zu segments, %zu group sizes, %zu outputs",
              nseg, group_k.size(), out.size());
    }
    for (std::size_t s = 0; s < nseg; ++s) {
        const std::size_t k = group_k[s];
        if (k == 0 || seg_rows[s] % k != 0) {
            fatal("fusedTailPool: segment rows %zu not a multiple of k=%zu",
                  seg_rows[s], k);
        }
        if (out[s].rows() != seg_rows[s] / k || out[s].cols() != cols) {
            fatal("fusedTailPool: output %zux%zu != %zux%zu",
                  out[s].rows(), out[s].cols(), seg_rows[s] / k, cols);
        }
    }
    ScratchArena &arena = ScratchArena::local();
    ScratchArena::Frame frame(arena);
    std::span<float> mean, inv;
    if (norm != nullptr) {
        mean = arena.alloc<float>(nseg * cols);
        inv = arena.alloc<float>(nseg * cols);
        segmentCoeffs(rows_of, seg_rows, cols, *norm, mean.data(),
                      inv.data());
    }
    // One task per (group, 64-column block).
    const std::size_t ranges = std::max<std::size_t>(
        1, (cols + kColBlock - 1) / kColBlock);
    std::span<std::size_t> tasks = arena.alloc<std::size_t>(nseg);
    std::span<std::uint8_t> pool_first = arena.alloc<std::uint8_t>(nseg);
    for (std::size_t s = 0; s < nseg; ++s) {
        tasks[s] = seg_rows[s] / group_k[s] * ranges;
        pool_first[s] = poolFirstExact(
            norm, act, coeffsOf(norm, mean, inv, s, cols, act), cols);
    }
    const std::span<std::size_t> first_task =
        arena.alloc<std::size_t>(nseg + 1);
    prefixSums(tasks, first_task);
    const TailFn tail = tailFor(norm, act);
    ThreadPool &pool = ThreadPool::globalPool();
    pool.parallelForChunked(0, first_task[nseg], [&](std::size_t lo,
                                                     std::size_t hi) {
        std::size_t s = segmentAt(first_task, lo);
        for (std::size_t t = lo; t < hi; ++t) {
            while (t >= first_task[s + 1]) {
                ++s;
            }
            const std::size_t local = t - first_task[s];
            const std::size_t group = local / ranges;
            const std::size_t c_lo = (local % ranges) * kColBlock;
            const std::size_t c_hi = std::min(cols, c_lo + kColBlock);
            poolGroup(rows_of(s), group * group_k[s], group_k[s], c_lo, c_hi,
                      pool_first[s] != 0, tail,
                      coeffsOf(norm, mean, inv, s, cols, act),
                      out[s].data() + group * cols);
        }
    });
}

/** Row offsets of a dense matrix's segments into @p starts
    (segment_rows.size() + 1 entries); fatal when they do not cover its
    rows. */
void
segmentStarts(const char *what, const Matrix &src,
              std::span<const std::size_t> segment_rows,
              std::span<std::size_t> starts)
{
    prefixSums(segment_rows, starts);
    if (starts.back() != src.rows()) {
        fatal("%s: segment rows %zu != input rows %zu", what, starts.back(),
              src.rows());
    }
}

} // namespace

void
columnStats(const float *x, std::size_t rows, std::size_t cols, float *mean,
            float *var)
{
    const std::size_t width = statsWidth(cols);
    const std::size_t ranges = (cols + width - 1) / width;
    const DenseRows src{x, cols};
    parallelFor(
        0, ranges,
        [&](std::size_t t) {
            const std::size_t c_lo = t * width;
            statsColumns(src, rows, c_lo, std::min(cols, c_lo + width), mean,
                         var);
        },
        1);
}

void
fusedTailRows(const Matrix &src, Matrix &dst,
              std::span<const std::size_t> segment_rows, const TailNorm *norm,
              Activation act)
{
    EDGEPC_TRACE_SCOPE("bn-act.rows", "nn");
    const std::size_t cols = src.cols();
    const std::size_t nseg = segment_rows.size();
    if (dst.rows() != src.rows() || dst.cols() != cols) {
        fatal("fusedTailRows: output %zux%zu != input %zux%zu", dst.rows(),
              dst.cols(), src.rows(), cols);
    }
    ScratchArena &arena = ScratchArena::local();
    ScratchArena::Frame frame(arena);
    const std::span<std::size_t> first_row =
        arena.alloc<std::size_t>(nseg + 1);
    segmentStarts("fusedTailRows", src, segment_rows, first_row);
    std::span<float> mean, inv;
    if (norm != nullptr) {
        mean = arena.alloc<float>(nseg * cols);
        inv = arena.alloc<float>(nseg * cols);
        const float *base = src.data();
        segmentCoeffs(
            [&](std::size_t s) {
                return DenseRows{base + first_row[s] * cols, cols};
            },
            segment_rows, cols, *norm, mean.data(), inv.data());
    }
    const TailFn tail = tailFor(norm, act);
    const float *in = src.data();
    float *out = dst.data();
    const std::size_t rows = src.rows();
    // At least ~32 KiB of rows per task: the pass is memory bound.
    ThreadPool &pool = ThreadPool::globalPool();
    const std::size_t grain = std::max<std::size_t>(
        {1, rows / (pool.concurrency() * 4),
         8192 / std::max<std::size_t>(cols, 1)});
    pool.parallelForChunked(
        0, rows,
        [&](std::size_t lo, std::size_t hi) {
            std::size_t s = segmentAt(first_row, lo);
            for (std::size_t r = lo; r < hi; ++r) {
                while (r >= first_row[s + 1]) {
                    ++s;
                }
                float *row = out + r * cols;
                if (row != in + r * cols) {
                    std::copy(in + r * cols, in + (r + 1) * cols, row);
                }
                tail(row, cols, coeffsOf(norm, mean, inv, s, cols, act), 0);
            }
        },
        grain);
}

void
fusedTailPool(const Matrix &src, std::span<const std::size_t> segment_rows,
              std::span<const std::size_t> group_k, const TailNorm *norm,
              Activation act, std::span<Matrix> out)
{
    const std::size_t cols = src.cols();
    ScratchArena &arena = ScratchArena::local();
    ScratchArena::Frame frame(arena);
    const std::span<std::size_t> first_row =
        arena.alloc<std::size_t>(segment_rows.size() + 1);
    segmentStarts("fusedTailPool", src, segment_rows, first_row);
    const float *base = src.data();
    tailPool(
        [&](std::size_t s) {
            return DenseRows{base + first_row[s] * cols, cols};
        },
        segment_rows, group_k, cols, norm, act, out);
}

void
fusedTailPoolEdges(const Matrix &psi, const Matrix &phi,
                   const NeighborLists &neighbors, const TailNorm *norm,
                   Activation act, Matrix &out)
{
    const std::size_t k = neighbors.k;
    const std::size_t rows[] = {neighbors.indices.size()};
    const std::size_t groups[] = {k};
    if (psi.rows() != neighbors.queries() || phi.cols() != psi.cols()) {
        fatal("fusedTailPoolEdges: psi %zux%zu, phi %zux%zu, %zu queries",
              psi.rows(), psi.cols(), phi.rows(), phi.cols(),
              neighbors.queries());
    }
    const EdgeRows edges{psi.data(), phi.data(), neighbors.indices.data(), k,
                         psi.cols()};
    tailPool([&](std::size_t) { return edges; }, rows, groups, psi.cols(),
             norm, act, std::span<Matrix>(&out, 1));
}

} // namespace nn
} // namespace edgepc
