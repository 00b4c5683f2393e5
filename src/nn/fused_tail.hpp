/**
 * @file
 * Fused inference tail: BatchNorm, (Leaky)ReLU and the neighbor
 * max-pool as one pass (DESIGN.md §17).
 *
 * Every shared-MLP stage ends in Linear -> BatchNorm -> activation,
 * and an aggregation block's last stage feeds a max-pool over each
 * point's k neighbor rows. At inference the elementwise part of that
 * tail runs here as a single in-place, branch-free, parallel pass, and
 * where a max-pool follows, the pool runs first on the raw
 * pre-activation so only the pooled rows are normalized.
 *
 * Every kernel is bit-identical (float ==; +0 and -0 compare equal)
 * with the unfused sequence BatchNorm::forward -> ReLU/LeakyReLU
 * forward -> MaxPoolNeighbors/GlobalMaxPool forward:
 *  - column statistics walk each column's rows in order, exactly like
 *    the serial mean[c] += x and centred d*d loops, and single-row
 *    segments use the running statistics;
 *  - y = g*((x - mean)*inv) + b rounds each step once (the translation
 *    unit builds with -ffp-contract=off);
 *  - pooling first is exact because every rounded step of the tail is
 *    weakly monotone in x: a column pools its maximum where gamma >= 0
 *    and its minimum where gamma < 0 (decreasing). A segment with any
 *    column the argument does not cover (non-finite statistics or
 *    parameters, a ReLU without BatchNorm in front) pools after the
 *    tail instead.
 */

#ifndef EDGEPC_NN_FUSED_TAIL_HPP
#define EDGEPC_NN_FUSED_TAIL_HPP

#include <cstddef>
#include <cstdint>
#include <span>

#include "neighbor/neighbor_search.hpp"
#include "nn/tensor.hpp"

namespace edgepc {
namespace nn {

/** The elementwise activation that closes a fused tail. */
struct Activation
{
    enum class Kind : std::uint8_t
    {
        Identity,
        Relu,      ///< y > 0 ? y : 0 (NaN -> 0).
        LeakyRelu, ///< y > 0 ? y : y * slope.
    };
    Kind kind = Kind::Identity;
    float slope = 0.0f; ///< Negative slope (LeakyRelu only).
};

/** A BatchNorm layer's parameters, as the fused tail reads them. */
struct TailNorm
{
    const float *gamma = nullptr;       ///< cols scale.
    const float *beta = nullptr;        ///< cols shift.
    const float *runningMean = nullptr; ///< cols (single-row segments).
    const float *runningVar = nullptr;  ///< cols (single-row segments).
    float eps = 0.0f;
};

/**
 * Column mean and biased variance of a row-major rows x cols block,
 * bit-identical with the serial loops (each column sums its rows in
 * order, then scales by 1/rows). Parallel over blocks of columns.
 */
void columnStats(const float *x, std::size_t rows, std::size_t cols,
                 float *mean, float *var);

/**
 * The tail over every row of a row-stacked batch: per segment,
 * normalize with the segment's statistics when @p norm is set, then
 * apply @p act. @p dst may alias @p src (the in-place form); otherwise
 * it must already have src's shape. Segment rows must sum to
 * src.rows().
 */
void fusedTailRows(const Matrix &src, Matrix &dst,
                   std::span<const std::size_t> segment_rows,
                   const TailNorm *norm, Activation act);

/**
 * The tail followed by a max-pool over consecutive groups of
 * group_k[s] rows inside each segment s: segment s of @p src yields
 * segment_rows[s] / group_k[s] rows in out[s], which must already have
 * that shape. Statistics cover all rows of the segment; where pooling
 * first is exact, only the pooled rows are normalized.
 */
void fusedTailPool(const Matrix &src,
                   std::span<const std::size_t> segment_rows,
                   std::span<const std::size_t> group_k,
                   const TailNorm *norm, Activation act,
                   std::span<Matrix> out);

/**
 * fusedTailPool over the rows of a delayed DGCNN EdgeConv block,
 * pre[i*k + j] = psi[i] + phi[neighbors.row(i)[j]], without
 * materializing them: statistics and the per-group max/min read psi
 * and phi directly. @p out must be neighbors.queries() x psi.cols().
 */
void fusedTailPoolEdges(const Matrix &psi, const Matrix &phi,
                        const NeighborLists &neighbors,
                        const TailNorm *norm, Activation act, Matrix &out);

} // namespace nn
} // namespace edgepc

#endif // EDGEPC_NN_FUSED_TAIL_HPP
