/** @file Unit tests for all neighbor searchers. */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>

#include "common/rng.hpp"
#include "neighbor/ball_query.hpp"
#include "neighbor/brute_force.hpp"
#include "neighbor/grid_query.hpp"
#include "neighbor/kd_tree.hpp"
#include "neighbor/kheap.hpp"
#include "neighbor/morton_window.hpp"
#include "neighbor/metrics.hpp"
#include "nn/gemm.hpp"
#include "sampling/morton_sampler.hpp"

namespace edgepc {
namespace {

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

/** Exact k-NN by full sort, used as an oracle. */
std::vector<std::uint32_t>
oracleKnn(const Vec3 &query, std::span<const Vec3> pts, std::size_t k)
{
    std::vector<std::pair<float, std::uint32_t>> all;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        all.emplace_back(squaredDistance(query, pts[i]),
                         static_cast<std::uint32_t>(i));
    }
    std::sort(all.begin(), all.end());
    std::vector<std::uint32_t> out;
    for (std::size_t i = 0; i < k; ++i) {
        out.push_back(all[i].second);
    }
    return out;
}

TEST(BruteForceKnn, MatchesOracle)
{
    const auto pts = randomCloud(300, 51);
    const auto queries = randomCloud(20, 52);
    BruteForceKnn knn;
    const auto lists = knn.search(queries, pts, 8);
    ASSERT_EQ(lists.queries(), 20u);
    for (std::size_t q = 0; q < queries.size(); ++q) {
        const auto expected = oracleKnn(queries[q], pts, 8);
        const auto row = lists.row(q);
        EXPECT_TRUE(std::equal(row.begin(), row.end(),
                               expected.begin()))
            << "query " << q;
    }
}

TEST(BruteForceKnn, ResultsSortedByDistance)
{
    const auto pts = randomCloud(100, 53);
    BruteForceKnn knn;
    const auto lists = knn.search({pts.data(), 5}, pts, 10);
    for (std::size_t q = 0; q < 5; ++q) {
        const auto row = lists.row(q);
        float prev = -1.0f;
        for (const auto idx : row) {
            const float d = squaredDistance(pts[q], pts[idx]);
            EXPECT_GE(d, prev);
            prev = d;
        }
    }
}

/**
 * The plain feature-space scan searchFeatureSpace replaced, kept as its
 * oracle: every candidate's in-order diff*diff distance pushed into a
 * KHeap in ascending candidate order (strict `<`, so the first of
 * equal distances wins). This file builds with FP contraction off, so
 * the loop rounds exactly like the library's re-check.
 */
std::vector<std::uint32_t>
scanFeatureKnn(std::span<const float> queries,
               std::span<const float> candidates, std::size_t dim,
               std::size_t k)
{
    const std::size_t nq = queries.size() / dim;
    const std::size_t nc = candidates.size() / dim;
    k = std::min(k, nc);
    std::vector<std::uint32_t> out(nq * k);
    std::vector<KHeap::Key> storage(k);
    for (std::size_t q = 0; q < nq; ++q) {
        KHeap heap(storage);
        const float *qrow = queries.data() + q * dim;
        for (std::size_t c = 0; c < nc; ++c) {
            const float *crow = candidates.data() + c * dim;
            float dist = 0.0f;
            for (std::size_t d = 0; d < dim; ++d) {
                const float diff = qrow[d] - crow[d];
                dist += diff * diff;
            }
            heap.push(dist, static_cast<std::uint32_t>(c));
        }
        const auto row = heap.finish();
        for (std::size_t j = 0; j < k; ++j) {
            out[q * k + j] = KHeap::indexOf(row[j]);
        }
    }
    return out;
}

/** Restores the process-wide GEMM dispatch path on scope exit. */
class GemmPathGuard
{
  public:
    GemmPathGuard() : saved(nn::GemmEngine::dispatchPath()) {}
    ~GemmPathGuard() { nn::GemmEngine::setDispatchPath(saved); }

  private:
    nn::GemmDispatchPath saved;
};

/** Both microkernel builds the tile stream can run on this host. */
std::vector<nn::GemmDispatchPath>
gemmPaths()
{
    std::vector<nn::GemmDispatchPath> paths = {
        nn::GemmDispatchPath::ForceScalar};
    if (nn::GemmEngine::fastKernelAvailable()) {
        paths.push_back(nn::GemmDispatchPath::ForceFast);
    }
    return paths;
}

/** searchFeatureSpace must return the scan's lists index for index
 *  (tie order included) under every GEMM dispatch path. */
void
expectMatchesScan(std::span<const float> queries,
                  std::span<const float> candidates, std::size_t dim,
                  std::size_t k, const std::string &label)
{
    const auto want = scanFeatureKnn(queries, candidates, dim, k);
    const GemmPathGuard guard;
    for (const auto path : gemmPaths()) {
        nn::GemmEngine::setDispatchPath(path);
        const auto got =
            BruteForceKnn::searchFeatureSpace(queries, candidates, dim, k);
        const char *route = path == nn::GemmDispatchPath::ForceScalar
                                ? "scalar"
                                : "fast";
        EXPECT_EQ(got.k, std::min(k, candidates.size() / dim))
            << label << " " << route;
        EXPECT_EQ(got.indices, want) << label << " " << route;
    }
}

std::vector<float>
normalFeatures(std::size_t n, std::size_t dim, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> f(n * dim);
    for (auto &v : f) {
        v = rng.normal();
    }
    return f;
}

TEST(BruteForceKnn, FeatureSpaceSearch)
{
    // 4 points in a 2-D feature space; every row is pinned, including
    // the ties: row 0 sees 1 and 2 at distance 1, row 3 sees 1 and 2 at
    // distance 181, and the first-encountered candidate wins both.
    const std::vector<float> feats = {0, 0, 1, 0, 0, 1, 10, 10};
    const std::vector<std::uint32_t> want = {0, 1, 1, 0, 2, 0, 3, 1};
    const GemmPathGuard guard;
    for (const auto path : gemmPaths()) {
        nn::GemmEngine::setDispatchPath(path);
        const auto lists =
            BruteForceKnn::searchFeatureSpace(feats, feats, 2, 2);
        ASSERT_EQ(lists.queries(), 4u);
        EXPECT_EQ(lists.indices, want);
    }
}

TEST(FeatureSpaceKnn, MatchesScanAcrossShapes)
{
    // 101 candidates: a multiple of neither the 6-row nor the 16-column
    // tile; 47 queries != 101 candidates; D spans below, at and past
    // one K block of the microkernel.
    for (const std::size_t dim : {1u, 2u, 3u, 7u, 16u, 64u, 130u}) {
        const auto queries = normalFeatures(47, dim, 100 + dim);
        const auto cands = normalFeatures(101, dim, 200 + dim);
        expectMatchesScan(queries, cands, dim, 8,
                          "dim " + std::to_string(dim));
        expectMatchesScan(cands, cands, dim, 20,
                          "self dim " + std::to_string(dim));
    }
}

TEST(FeatureSpaceKnn, ClampsKAtCandidateCount)
{
    const auto queries = normalFeatures(13, 5, 301);
    const auto cands = normalFeatures(11, 5, 302);
    expectMatchesScan(queries, cands, 5, 11, "k == N");
    expectMatchesScan(queries, cands, 5, 40, "k > N");
    const auto lists = BruteForceKnn::searchFeatureSpace(queries, cands, 5, 40);
    EXPECT_EQ(lists.k, 11u);
    for (std::size_t q = 0; q < lists.queries(); ++q) {
        const auto row = lists.row(q);
        const std::set<std::uint32_t> distinct(row.begin(), row.end());
        EXPECT_EQ(distinct.size(), 11u);
    }
}

TEST(FeatureSpaceKnn, DuplicatesAndTiesKeepScanOrder)
{
    // Integer lattice features: hundreds of exactly equal distances per
    // query, plus exact duplicate rows, so every tie-break is exercised.
    for (const std::size_t dim : {3u, 16u}) {
        Rng rng(400 + dim);
        std::vector<float> f(90 * dim);
        for (auto &v : f) {
            v = static_cast<float>(rng.nextBelow(3));
        }
        // Rows 60.. repeat rows 0.. exactly.
        std::copy(f.begin(), f.begin() + 30 * dim, f.begin() + 60 * dim);
        expectMatchesScan(f, f, dim, 12, "lattice dim " + std::to_string(dim));
    }
}

TEST(FeatureSpaceKnn, LargeCommonOffset)
{
    // |q|^2 + |c|^2 - 2 q.c cancels catastrophically once every feature
    // sits near 1e3; the rounding margin scales with (|q| + max|c|)^2.
    for (const std::size_t dim : {16u, 64u}) {
        auto f = normalFeatures(97, dim, 500 + dim);
        for (auto &v : f) {
            v += 1e3f;
        }
        expectMatchesScan(f, f, dim, 10, "offset dim " + std::to_string(dim));
    }
}

TEST(FeatureSpaceKnn, NonFiniteRowsBehaveLikeScan)
{
    const std::size_t dim = 8;
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    auto f = normalFeatures(64, dim, 601);
    f[1 * dim + 3] = nan;  // inside the first k: freezes the scan's heap
    f[30 * dim + 0] = nan; // after the heap filled: never admitted
    f[40 * dim + 5] = inf;
    f[41 * dim + 2] = -inf;
    f[50 * dim + 1] = 1e30f; // finite, but its square overflows
    expectMatchesScan(f, f, dim, 6, "non-finite candidates and queries");

    const auto clean = normalFeatures(64, dim, 602);
    auto q = normalFeatures(5, dim, 603);
    q[2 * dim + 4] = nan;
    q[3 * dim + 0] = inf;
    q[4 * dim + 7] = 3e20f;
    expectMatchesScan(q, clean, dim, 6, "non-finite queries");

    // Finite features whose squared norms overflow while the distances
    // between them stay finite: |q|^2 and 2 q.c round to inf, yet the
    // scan keeps admitting the ever closer candidates past the first
    // panel. Rows like these must skip the filter.
    std::vector<float> huge;
    for (std::size_t c = 0; c < 40; ++c) {
        const float v = 1.2e19f + static_cast<float>(c) * 2e16f;
        huge.insert(huge.end(), {v, v});
    }
    const std::vector<float> hq = {1.31e19f, 1.31e19f, 1.25e19f, 1.25e19f};
    expectMatchesScan(hq, huge, 2, 4, "overflowing norms");
    expectMatchesScan(huge, huge, 2, 4, "overflowing norms, self");
}

TEST(BallQuery, FindsPointsInsideRadius)
{
    const std::vector<Vec3> pts = {
        {0, 0, 0}, {0.5f, 0, 0}, {0.9f, 0, 0}, {3, 0, 0}};
    BallQuery bq(1.0f);
    const std::vector<Vec3> queries = {{0, 0, 0}};
    const auto lists = bq.search(queries, pts, 3);
    const auto row = lists.row(0);
    const std::set<std::uint32_t> found(row.begin(), row.end());
    EXPECT_TRUE(found.count(0));
    EXPECT_TRUE(found.count(1));
    EXPECT_TRUE(found.count(2));
    EXPECT_FALSE(found.count(3));
}

TEST(BallQuery, PadsWithFirstInBall)
{
    const std::vector<Vec3> pts = {{0, 0, 0}, {10, 0, 0}};
    BallQuery bq(1.0f);
    const std::vector<Vec3> queries = {{0.1f, 0, 0}};
    const auto lists = bq.search(queries, pts, 2);
    EXPECT_EQ(lists.row(0)[0], 0u);
    EXPECT_EQ(lists.row(0)[1], 0u); // padded
}

TEST(BallQuery, EmptyBallFallsBackToNearest)
{
    const std::vector<Vec3> pts = {{5, 0, 0}, {9, 0, 0}};
    BallQuery bq(1.0f);
    const std::vector<Vec3> queries = {{0, 0, 0}};
    const auto lists = bq.search(queries, pts, 2);
    EXPECT_EQ(lists.row(0)[0], 0u); // nearest despite outside ball
}

TEST(BallQuery, PaperFigure10aExample)
{
    // Fig 10a: same 5-point cloud, R^2 = 11, search 3 neighbors of P2.
    const std::vector<Vec3> pts = {
        {0, 0, 0}, {1, 2, 3}, {3, 1, 0}, {0, 7, 0}, {4, 4, 1}};
    BallQuery bq(std::sqrt(11.0f));
    const std::vector<Vec3> queries = {pts[2]};
    const auto lists = bq.search(queries, pts, 3);
    const auto row = lists.row(0);
    const std::set<std::uint32_t> found(row.begin(), row.end());
    // d2(P2,P0)=10, d2(P2,P1)=14 > 11... compute: (3-1)^2+(1-2)^2+(0-3)^2
    // = 4+1+9 = 14; d2(P2,P4)=1+9+1=11 <= 11; d2(P2,P3)=9+36=45.
    EXPECT_TRUE(found.count(0));
    EXPECT_TRUE(found.count(2)); // itself
    EXPECT_TRUE(found.count(4));
}

TEST(GridBallQuery, MatchesPlainBallQueryContents)
{
    const auto pts = randomCloud(600, 64);
    const auto queries = randomCloud(40, 65);
    const float radius = 0.25f;
    GridBallQuery grid_bq(radius);
    const auto lists = grid_bq.search(queries, pts, 8);
    // Every returned (non-padding) neighbor must be inside the ball
    // or be the nearest-fallback.
    for (std::size_t q = 0; q < queries.size(); ++q) {
        const auto row = lists.row(q);
        // First entry: inside ball, or the globally nearest point.
        const float d0 = distance(queries[q], pts[row[0]]);
        if (d0 > radius) {
            for (std::size_t c = 0; c < pts.size(); ++c) {
                EXPECT_GE(distance(queries[q], pts[c]) + 1e-6f, d0);
            }
        }
        for (const auto idx : row) {
            const float d = distance(queries[q], pts[idx]);
            EXPECT_TRUE(d <= radius || idx == row[0]);
        }
    }
}

TEST(GridBallQuery, FindsAllWhenBallIsLarge)
{
    const std::vector<Vec3> pts = {
        {0, 0, 0}, {0.1f, 0, 0}, {0, 0.1f, 0}};
    GridBallQuery bq(10.0f);
    const std::vector<Vec3> queries = {{0, 0, 0}};
    const auto lists = bq.search(queries, pts, 3);
    const std::set<std::uint32_t> found(lists.row(0).begin(),
                                        lists.row(0).end());
    EXPECT_EQ(found.size(), 3u);
}

TEST(GridBallQuery, FallsBackToNearestOutsideGridReach)
{
    const std::vector<Vec3> pts = {{100, 100, 100}, {200, 0, 0}};
    GridBallQuery bq(0.5f);
    const std::vector<Vec3> queries = {{0, 0, 0}};
    const auto lists = bq.search(queries, pts, 2);
    EXPECT_EQ(lists.row(0)[0], 0u); // nearest despite empty ball
}

TEST(KdTree, KnnMatchesBruteForce)
{
    const auto pts = randomCloud(500, 54);
    const KdTree tree(pts);
    EXPECT_EQ(tree.size(), pts.size());
    const auto queries = randomCloud(25, 55);
    for (const Vec3 &q : queries) {
        const auto expected = oracleKnn(q, pts, 6);
        const auto found = tree.knn(q, 6);
        ASSERT_EQ(found.size(), 6u);
        // Same distance multiset (ties may reorder equal distances).
        for (std::size_t i = 0; i < 6; ++i) {
            EXPECT_FLOAT_EQ(squaredDistance(q, pts[found[i]]),
                            squaredDistance(q, pts[expected[i]]));
        }
    }
}

TEST(KdTree, RadiusMatchesLinearScan)
{
    const auto pts = randomCloud(400, 56);
    const KdTree tree(pts);
    const Vec3 q{0.5f, 0.5f, 0.5f};
    const float r = 0.3f;
    auto found = tree.radius(q, r);
    std::sort(found.begin(), found.end());
    std::vector<std::uint32_t> expected;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        if (squaredDistance(q, pts[i]) <= r * r) {
            expected.push_back(static_cast<std::uint32_t>(i));
        }
    }
    EXPECT_EQ(found, expected);
}

TEST(KdTreeKnn, AdapterMatchesBruteForce)
{
    const auto pts = randomCloud(200, 57);
    const auto queries = randomCloud(10, 58);
    KdTreeKnn kd;
    BruteForceKnn bf;
    const auto a = kd.search(queries, pts, 4);
    const auto b = bf.search(queries, pts, 4);
    for (std::size_t q = 0; q < queries.size(); ++q) {
        for (std::size_t j = 0; j < 4; ++j) {
            EXPECT_FLOAT_EQ(
                squaredDistance(queries[q], pts[a.row(q)[j]]),
                squaredDistance(queries[q], pts[b.row(q)[j]]));
        }
    }
}

TEST(KdTreeBallQuery, AgreesWithPlainBallQueryMembership)
{
    const auto pts = randomCloud(400, 66);
    const auto queries = randomCloud(25, 67);
    const float radius = 0.3f;
    KdTreeBallQuery tree_bq(radius);
    const auto lists = tree_bq.search(queries, pts, 6);
    for (std::size_t q = 0; q < queries.size(); ++q) {
        const auto row = lists.row(q);
        const float d0 = distance(queries[q], pts[row[0]]);
        for (const auto idx : row) {
            const float d = distance(queries[q], pts[idx]);
            // In-ball, or the padded copy of the first entry, or the
            // nearest-fallback when the ball is empty.
            EXPECT_TRUE(d <= radius + 1e-5f || idx == row[0]);
        }
        if (d0 > radius) {
            // Fallback must be the true nearest.
            for (std::size_t c = 0; c < pts.size(); ++c) {
                EXPECT_GE(distance(queries[q], pts[c]) + 1e-5f, d0);
            }
        }
    }
}

TEST(KdTreeBallQuery, LargeBallReturnsDistinctNeighbors)
{
    const auto pts = randomCloud(50, 68);
    KdTreeBallQuery bq(10.0f);
    const std::vector<Vec3> queries = {pts[0]};
    const auto lists = bq.search(queries, pts, 8);
    const std::set<std::uint32_t> unique(lists.row(0).begin(),
                                         lists.row(0).end());
    EXPECT_EQ(unique.size(), 8u);
}

TEST(MortonWindow, PureIndexSelectionReturnsWindowPoints)
{
    const auto pts = randomCloud(100, 59);
    MortonSampler sampler(32);
    const auto s = sampler.structurize(pts);
    const MortonWindowSearch searcher(0); // W = k mode
    const std::vector<std::uint32_t> queries = {s.order[50]};
    const auto lists = searcher.search(pts, s, queries, 4);
    ASSERT_EQ(lists.k, 4u);
    // All neighbors must come from sorted positions near 50 (the
    // query itself is a legal neighbor, as in Sec 4.3's formula).
    for (const auto idx : lists.row(0)) {
        const std::size_t pos = s.rank[idx];
        EXPECT_GE(pos, 47u);
        EXPECT_LE(pos, 53u);
    }
}

TEST(MortonWindow, LargerWindowImprovesRecall)
{
    const auto pts = randomCloud(2000, 60);
    MortonSampler sampler(32);
    const auto s = sampler.structurize(pts);
    BruteForceKnn exact;

    const std::size_t k = 8;
    std::vector<std::uint32_t> queries;
    for (std::uint32_t i = 0; i < 200; ++i) {
        queries.push_back(i * 10);
    }
    std::vector<Vec3> query_pos;
    for (const auto idx : queries) {
        query_pos.push_back(pts[idx]);
    }
    const auto truth = exact.search(query_pos, pts, k);

    double prev_fnr = 1.1;
    for (const std::size_t w : {k, 4 * k, 16 * k}) {
        const MortonWindowSearch searcher(w);
        const auto approx = searcher.search(pts, s, queries, k);
        const double fnr = falseNeighborRatio(approx, truth);
        EXPECT_LE(fnr, prev_fnr + 0.02)
            << "window " << w << " should not be worse";
        prev_fnr = fnr;
    }
    // With a 16k window the FNR should be small (paper reaches ~5%).
    EXPECT_LT(prev_fnr, 0.35);
}

TEST(MortonWindow, SearchAllCoversEveryPoint)
{
    const auto pts = randomCloud(128, 61);
    MortonSampler sampler(32);
    const auto s = sampler.structurize(pts);
    const MortonWindowSearch searcher(16);
    const auto lists = searcher.searchAll(pts, s, 4);
    EXPECT_EQ(lists.queries(), pts.size());
}

TEST(MortonWindowKnn, AdapterApproximatesExactSearch)
{
    const auto pts = randomCloud(1000, 62);
    MortonWindowKnn approx(64);
    BruteForceKnn exact;
    const auto a = approx.search(pts, pts, 8);
    const auto b = exact.search(pts, pts, 8);
    const double fnr = falseNeighborRatio(a, b);
    // Should recover a solid majority of true neighbors.
    EXPECT_LT(fnr, 0.6);
    EXPECT_GT(neighborRecall(a, b), 0.4);
}

TEST(MortonWindow, WindowAtCloudEdges)
{
    const auto pts = randomCloud(32, 63);
    MortonSampler sampler(32);
    const auto s = sampler.structurize(pts);
    const MortonWindowSearch searcher(8);
    // First and last sorted points must still get k neighbors.
    const std::vector<std::uint32_t> queries = {s.order[0],
                                                s.order[31]};
    const auto lists = searcher.search(pts, s, queries, 5);
    EXPECT_EQ(lists.row(0).size(), 5u);
    EXPECT_EQ(lists.row(1).size(), 5u);
}

} // namespace
} // namespace edgepc
