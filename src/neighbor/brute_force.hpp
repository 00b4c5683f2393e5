/**
 * @file
 * Exact brute-force k-nearest-neighbor search: the k-NN baseline of
 * Sec 5.2.1. O(N) distance evaluations per query, O(QN) total.
 */

#ifndef EDGEPC_NEIGHBOR_BRUTE_FORCE_HPP
#define EDGEPC_NEIGHBOR_BRUTE_FORCE_HPP

#include "geometry/simd_distance.hpp"
#include "neighbor/neighbor_search.hpp"

namespace edgepc {

/** Exact k-NN by exhaustive distance computation. */
class BruteForceKnn : public NeighborSearch
{
  public:
    /**
     * @param fixed_point Fixed-point distance gate (DESIGN.md §15).
     *     Off (default) keeps exact fp32 distances; On ranks neighbors
     *     by s16 grid distance when the cloud quantizes. Auto stays
     *     Off for k-NN — snap error reorders near-ties — so the
     *     approximation is strictly opt-in; EDGEPC_SIMD (int8 |
     *     scalar | simd) overrides. Coordinate-space search() only;
     *     searchFeatureSpace always runs fp32.
     */
    explicit BruteForceKnn(
        simd::FixedPointMode fixed_point = simd::FixedPointMode::Off)
        : fixedMode(fixed_point)
    {
    }

    [[nodiscard]]
    NeighborLists search(std::span<const Vec3> queries,
                         std::span<const Vec3> candidates,
                         std::size_t k) override;

    std::string name() const override { return "knn"; }

    /**
     * Exact k-NN in an arbitrary-dimension feature space (row-major
     * points of dimension dim). Used by DGCNN's later EdgeConv modules,
     * which search neighbors by feature distance (Sec 5.2.3).
     *
     * Runs as a GEMM filter (DESIGN.md §16): the packed GEMM engine
     * streams q·c tiles, each lane is masked on |c|^2 - 2 q·c against
     * the query's current k-th distance plus a proven rounding margin,
     * and only the survivors get the exact in-order diff*diff distance
     * and a heap push, in ascending candidate order. The lists are
     * index-identical, tie order included, to a plain scan of every
     * candidate on both GEMM dispatch paths; rows with NaN/Inf or
     * overflowing features are never filtered, so they also behave
     * exactly like the scan. No distance matrix is materialized. k is
     * clamped to the candidate count.
     */
    [[nodiscard]]
    static NeighborLists searchFeatureSpace(std::span<const float> queries,
                                            std::span<const float> candidates,
                                            std::size_t dim, std::size_t k);

  private:
    simd::FixedPointMode fixedMode;
};

} // namespace edgepc

#endif // EDGEPC_NEIGHBOR_BRUTE_FORCE_HPP
