/**
 * @file Unit tests for the packed two-path GEMM engine.
 *
 * The bit-exactness suites compare the packed scalar microkernel
 * against a classic in-order loop nest compiled in this file; the
 * tests CMakeLists disables FP contraction for this source so the
 * reference rounds every multiply-add twice, matching the contract of
 * the scalar path (see the matching flag on src/nn/gemm.cpp).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <span>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/gemm.hpp"
#include "nn/layers.hpp"
#include "row_concat_oracle.hpp"

namespace edgepc {
namespace nn {
namespace {

Matrix
randomMatrix(std::size_t r, std::size_t c, std::uint64_t seed)
{
    Rng rng(seed);
    Matrix m(r, c);
    m.fillNormal(rng, 1.0f);
    return m;
}

void
expectClose(const Matrix &a, const Matrix &b, float tol = 1e-3f)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    for (std::size_t i = 0; i < a.numel(); ++i) {
        EXPECT_NEAR(a.data()[i], b.data()[i], tol) << "element " << i;
    }
}

TEST(Gemm, KnownSmallProduct)
{
    GemmEngine engine(GemmMode::Scalar);
    Matrix a(2, 2, {1, 2, 3, 4});
    Matrix b(2, 2, {5, 6, 7, 8});
    const Matrix c = engine.multiply(a, b);
    EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
    EXPECT_FLOAT_EQ(c.at(0, 1), 22.0f);
    EXPECT_FLOAT_EQ(c.at(1, 0), 43.0f);
    EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
}

TEST(Gemm, FastPathMatchesScalarPath)
{
    GemmEngine scalar(GemmMode::Scalar);
    GemmEngine fast(GemmMode::Fast);
    const Matrix a = randomMatrix(33, 47, 71);
    const Matrix b = randomMatrix(47, 29, 72);
    expectClose(scalar.multiply(a, b), fast.multiply(a, b));
}

TEST(Gemm, AutoDispatchByChannelDim)
{
    GemmEngine engine(GemmMode::Auto, 16);
    const Matrix thin_a = randomMatrix(8, 8, 73);
    const Matrix thin_b = randomMatrix(8, 8, 74);
    engine.multiply(thin_a, thin_b); // K = 8 < 16 -> scalar.
    EXPECT_EQ(engine.fastPathCalls(), 0u);
    EXPECT_EQ(engine.scalarPathCalls(), 1u);

    const Matrix wide_a = randomMatrix(8, 64, 75);
    const Matrix wide_b = randomMatrix(64, 8, 76);
    engine.multiply(wide_a, wide_b); // K = 64 >= 16 -> fast.
    EXPECT_EQ(engine.fastPathCalls(), 1u);
    EXPECT_DOUBLE_EQ(engine.fastPathUtilization(), 0.5);

    engine.resetStats();
    EXPECT_EQ(engine.fastPathCalls(), 0u);
}

TEST(Gemm, MultiplyTransposed)
{
    GemmEngine engine(GemmMode::Scalar);
    const Matrix a = randomMatrix(5, 7, 77);
    const Matrix b = randomMatrix(9, 7, 78);
    const Matrix c = engine.multiplyTransposed(a, b); // 5 x 9
    ASSERT_EQ(c.rows(), 5u);
    ASSERT_EQ(c.cols(), 9u);
    for (std::size_t i = 0; i < 5; ++i) {
        for (std::size_t j = 0; j < 9; ++j) {
            float expected = 0.0f;
            for (std::size_t k = 0; k < 7; ++k) {
                expected += a.at(i, k) * b.at(j, k);
            }
            EXPECT_NEAR(c.at(i, j), expected, 1e-3f);
        }
    }
}

TEST(Gemm, MultiplyLeftTransposed)
{
    GemmEngine engine(GemmMode::Scalar);
    const Matrix a = randomMatrix(7, 4, 79);
    const Matrix b = randomMatrix(7, 3, 80);
    const Matrix c = engine.multiplyLeftTransposed(a, b); // 4 x 3
    ASSERT_EQ(c.rows(), 4u);
    ASSERT_EQ(c.cols(), 3u);
    for (std::size_t i = 0; i < 4; ++i) {
        for (std::size_t j = 0; j < 3; ++j) {
            float expected = 0.0f;
            for (std::size_t k = 0; k < 7; ++k) {
                expected += a.at(k, i) * b.at(k, j);
            }
            EXPECT_NEAR(c.at(i, j), expected, 1e-3f);
        }
    }
}

TEST(Gemm, IdentityMultiplication)
{
    GemmEngine engine(GemmMode::Fast);
    Matrix eye(4, 4);
    for (std::size_t i = 0; i < 4; ++i) {
        eye.at(i, i) = 1.0f;
    }
    const Matrix a = randomMatrix(4, 4, 81);
    expectClose(engine.multiply(eye, a), a);
    expectClose(engine.multiply(a, eye), a);
}

TEST(Gemm, LargeShapesAgree)
{
    GemmEngine scalar(GemmMode::Scalar);
    GemmEngine fast(GemmMode::Fast);
    const Matrix a = randomMatrix(130, 200, 82);
    const Matrix b = randomMatrix(200, 90, 83);
    expectClose(scalar.multiply(a, b), fast.multiply(a, b), 5e-3f);
}

// ---------------------------------------------------------------------
// Packed-kernel correctness across dispatch paths
// ---------------------------------------------------------------------

/** Restores the process-wide microkernel override on scope exit. */
class DispatchPathGuard
{
  public:
    explicit DispatchPathGuard(GemmDispatchPath path)
        : saved(GemmEngine::dispatchPath())
    {
        GemmEngine::setDispatchPath(path);
    }
    ~DispatchPathGuard() { GemmEngine::setDispatchPath(saved); }

  private:
    GemmDispatchPath saved;
};

/**
 * Classic in-order loop nest: one accumulator per C element, k
 * strictly ascending. With contraction disabled for this file it is
 * the rounding the scalar path promises to reproduce bit-exactly.
 */
Matrix
referenceGemm(const Matrix &a, const Matrix &b)
{
    Matrix c(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < b.cols(); ++j) {
            float acc = 0.0f;
            for (std::size_t k = 0; k < a.cols(); ++k) {
                acc += a.at(i, k) * b.at(k, j);
            }
            c.at(i, j) = acc;
        }
    }
    return c;
}

void
expectBitExact(const Matrix &got, const Matrix &want)
{
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    for (std::size_t i = 0; i < got.numel(); ++i) {
        ASSERT_EQ(got.data()[i], want.data()[i]) << "element " << i;
    }
}

void
expectRelClose(const Matrix &got, const Matrix &want, float rel)
{
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    for (std::size_t i = 0; i < got.numel(); ++i) {
        const float scale =
            std::max({1.0f, std::abs(got.data()[i]),
                      std::abs(want.data()[i])});
        ASSERT_NEAR(got.data()[i], want.data()[i], rel * scale)
            << "element " << i;
    }
}

/** The microkernel edge cases: below/at/above MR=6, NR=16, KC tiles. */
const std::size_t kRemainderDims[] = {1, 2, 5, 6, 7, 16, 17, 63, 64, 65};

TEST(GemmPacked, RemainderShapesForcedScalarBitExact)
{
    const DispatchPathGuard guard(GemmDispatchPath::ForceScalar);
    GemmEngine engine(GemmMode::Fast);
    std::uint64_t seed = 1000;
    for (const std::size_t m : kRemainderDims) {
        for (const std::size_t k : kRemainderDims) {
            for (const std::size_t n : kRemainderDims) {
                const Matrix a = randomMatrix(m, k, seed++);
                const Matrix b = randomMatrix(k, n, seed++);
                expectBitExact(engine.multiply(a, b),
                               referenceGemm(a, b));
            }
        }
    }
}

TEST(GemmPacked, RemainderShapesFmaWithinTolerance)
{
    if (!GemmEngine::fastKernelAvailable()) {
        GTEST_SKIP() << "no AVX2+FMA on this host";
    }
    const DispatchPathGuard guard(GemmDispatchPath::ForceFast);
    GemmEngine engine(GemmMode::Fast);
    std::uint64_t seed = 5000;
    for (const std::size_t m : kRemainderDims) {
        for (const std::size_t k : kRemainderDims) {
            for (const std::size_t n : kRemainderDims) {
                const Matrix a = randomMatrix(m, k, seed++);
                const Matrix b = randomMatrix(k, n, seed++);
                // FMA reassociates the K reduction across 2 lanes x 8
                // floats; 1e-4 relative covers K up to the tested 65.
                expectRelClose(engine.multiply(a, b),
                               referenceGemm(a, b), 1e-4f);
            }
        }
    }
}

TEST(GemmPacked, ForcedScalarBitExactOnLargeShape)
{
    const DispatchPathGuard guard(GemmDispatchPath::ForceScalar);
    GemmEngine engine(GemmMode::Fast);
    const Matrix a = randomMatrix(130, 200, 90);
    const Matrix b = randomMatrix(200, 90, 91);
    expectBitExact(engine.multiply(a, b), referenceGemm(a, b));
}

TEST(GemmPacked, TransposedVariantsBothPaths)
{
    const Matrix a = randomMatrix(37, 53, 92);  // M x K
    const Matrix bt = randomMatrix(29, 53, 93); // N x K (for A * B^T)
    const Matrix at = randomMatrix(53, 37, 94); // K x M (for A^T * B)
    const Matrix b = randomMatrix(53, 29, 95);  // K x N

    Matrix want_abt(37, 29);
    for (std::size_t i = 0; i < 37; ++i) {
        for (std::size_t j = 0; j < 29; ++j) {
            float acc = 0.0f;
            for (std::size_t k = 0; k < 53; ++k) {
                acc += a.at(i, k) * bt.at(j, k);
            }
            want_abt.at(i, j) = acc;
        }
    }
    Matrix want_atb(37, 29);
    for (std::size_t i = 0; i < 37; ++i) {
        for (std::size_t j = 0; j < 29; ++j) {
            float acc = 0.0f;
            for (std::size_t k = 0; k < 53; ++k) {
                acc += at.at(k, i) * b.at(k, j);
            }
            want_atb.at(i, j) = acc;
        }
    }

    GemmEngine engine(GemmMode::Fast);
    {
        const DispatchPathGuard guard(GemmDispatchPath::ForceScalar);
        expectBitExact(engine.multiplyTransposed(a, bt), want_abt);
        expectBitExact(engine.multiplyLeftTransposed(at, b), want_atb);
    }
    if (GemmEngine::fastKernelAvailable()) {
        const DispatchPathGuard guard(GemmDispatchPath::ForceFast);
        expectRelClose(engine.multiplyTransposed(a, bt), want_abt, 1e-4f);
        expectRelClose(engine.multiplyLeftTransposed(at, b), want_atb,
                       1e-4f);
    }
}

/**
 * streamTransposedTiles hands out exactly the tiles multiplyTransposed
 * stores (same packing, same microkernel), and every row reaches the
 * consumer from one thread with its columns in ascending order: the
 * contract exact feature-space k-NN builds its tie order on. 100 rows
 * span three 48-row owner blocks; 45 columns end in a ragged panel.
 */
TEST(GemmPacked, StreamedTilesMatchMultiplyTransposed)
{
    const std::size_t m = 100, n = 45, k = 37;
    const Matrix a = randomMatrix(m, k, 96);
    const Matrix b = randomMatrix(n, k, 97);
    std::vector<GemmDispatchPath> paths = {GemmDispatchPath::ForceScalar};
    if (GemmEngine::fastKernelAvailable()) {
        paths.push_back(GemmDispatchPath::ForceFast);
    }
    GemmEngine engine(GemmMode::Fast);
    for (const auto path : paths) {
        const DispatchPathGuard guard(path);
        const Matrix want = engine.multiplyTransposed(a, b);
        Matrix got(m, n);
        std::vector<std::size_t> nextCol(m, 0);
        std::vector<std::thread::id> owner(m);
        std::atomic<bool> ordered{true};
        GemmEngine::streamTransposedTiles(
            a.data(), m, b.data(), n, k, [&](const GemmTile &tile) {
                for (std::size_t r = 0; r < tile.rows; ++r) {
                    const std::size_t i = tile.row + r;
                    if (tile.col == 0) {
                        owner[i] = std::this_thread::get_id();
                    }
                    if (nextCol[i] != tile.col ||
                        owner[i] != std::this_thread::get_id()) {
                        ordered = false;
                    }
                    nextCol[i] = tile.col + tile.cols;
                    for (std::size_t c = 0; c < tile.cols; ++c) {
                        got.at(i, tile.col + c) =
                            tile.acc[r * GemmTile::kCols + c];
                    }
                }
            });
        EXPECT_TRUE(ordered.load());
        EXPECT_EQ(nextCol, std::vector<std::size_t>(m, n));
        expectBitExact(got, want);
    }
}

TEST(GemmPacked, MultiplyLeftTransposedAddAccumulates)
{
    GemmEngine engine(GemmMode::Scalar);
    const Matrix a = randomMatrix(15, 6, 96); // K x M
    const Matrix b = randomMatrix(15, 9, 97); // K x N
    Matrix out = randomMatrix(6, 9, 98);
    const Matrix before = out;
    const Matrix product = engine.multiplyLeftTransposed(a, b);
    engine.multiplyLeftTransposedAdd(a, b, out);
    for (std::size_t i = 0; i < out.numel(); ++i) {
        EXPECT_FLOAT_EQ(out.data()[i],
                        before.data()[i] + product.data()[i])
            << "element " << i;
    }
}

TEST(GemmPacked, ForceFastRaisesWithoutFma)
{
    if (GemmEngine::fastKernelAvailable()) {
        GTEST_SKIP() << "host has AVX2+FMA; the raise path is covered "
                        "on non-AVX2 machines";
    }
    EXPECT_THROW(GemmEngine::setDispatchPath(GemmDispatchPath::ForceFast),
                 EdgePcException);
}

TEST(GemmPacked, ActiveKernelNameReflectsPath)
{
    {
        const DispatchPathGuard guard(GemmDispatchPath::ForceScalar);
        EXPECT_STREQ(GemmEngine::activeKernelName(), "scalar");
    }
    // The ambient path may itself be forced via EDGEPC_GEMM (CI runs
    // the suite under EDGEPC_GEMM=scalar), so check the Auto mapping
    // under an explicit guard.
    const DispatchPathGuard guard(GemmDispatchPath::Auto);
    const char *auto_name = GemmEngine::activeKernelName();
    if (GemmEngine::fastKernelAvailable()) {
        EXPECT_STREQ(auto_name, "avx2-fma");
    } else {
        EXPECT_STREQ(auto_name, "scalar");
    }
}

// ---------------------------------------------------------------------
// Fused epilogues
// ---------------------------------------------------------------------

void
checkEpiloguesOnPath(GemmDispatchPath path)
{
    const DispatchPathGuard guard(path);
    GemmEngine engine(GemmMode::Fast);
    std::uint64_t seed = 9000;
    const std::size_t shapes[][3] = {
        {1, 7, 5}, {6, 16, 16}, {7, 17, 33}, {64, 64, 64}, {130, 96, 48},
    };
    for (const auto &s : shapes) {
        const Matrix a = randomMatrix(s[0], s[1], seed++);
        const Matrix b = randomMatrix(s[1], s[2], seed++);
        const Matrix bias = randomMatrix(1, s[2], seed++);

        // The fused epilogue adds the bias to the same accumulator
        // value the unfused store writes, so the results match
        // bit-for-bit on either path.
        const Matrix plain = engine.multiply(a, b);
        Matrix want_bias = plain;
        Matrix want_relu = plain;
        for (std::size_t r = 0; r < want_bias.rows(); ++r) {
            for (std::size_t c = 0; c < want_bias.cols(); ++c) {
                const float v = plain.at(r, c) + bias.at(0, c);
                want_bias.at(r, c) = v;
                want_relu.at(r, c) = v > 0.0f ? v : 0.0f;
            }
        }
        expectBitExact(
            engine.multiply(a, b, GemmEpilogue::Bias, bias), want_bias);
        expectBitExact(
            engine.multiply(a, b, GemmEpilogue::BiasRelu, bias),
            want_relu);
    }
}

TEST(GemmEpilogue, FusedMatchesUnfusedScalarPath)
{
    checkEpiloguesOnPath(GemmDispatchPath::ForceScalar);
}

TEST(GemmEpilogue, FusedMatchesUnfusedFmaPath)
{
    if (!GemmEngine::fastKernelAvailable()) {
        GTEST_SKIP() << "no AVX2+FMA on this host";
    }
    checkEpiloguesOnPath(GemmDispatchPath::ForceFast);
}

TEST(GemmEpilogue, MissingBiasRaises)
{
    GemmEngine engine(GemmMode::Scalar);
    const Matrix a = randomMatrix(4, 4, 9900);
    const Matrix b = randomMatrix(4, 4, 9901);
    Matrix c(4, 4);
    EXPECT_THROW(engine.gemm(a.data(), b.data(), c.data(), 4, 4, 4,
                             GemmEpilogue::Bias, nullptr),
                 EdgePcException);
}

/**
 * K = 0: A * B is an empty sum, so C must still hold the epilogue of
 * zero — the bias (rectified for BiasRelu), or zeros for None — on
 * the raw-pointer and every Matrix entry point, whatever C held.
 */
TEST(GemmEpilogue, EmptyReductionStillWritesEpilogue)
{
    GemmEngine engine(GemmMode::Auto);
    const std::size_t m = 7, n = 19;
    const Matrix a(m, 0);
    const Matrix b(0, n);
    const Matrix bias = randomMatrix(1, n, 9950);
    std::vector<float> c(m * n, std::nanf(""));
    engine.gemm(a.data(), b.data(), c.data(), m, 0, n, GemmEpilogue::Bias,
                bias.data());
    for (std::size_t i = 0; i < c.size(); ++i) {
        ASSERT_EQ(c[i], bias.data()[i % n]) << "element " << i;
    }
    std::fill(c.begin(), c.end(), std::nanf(""));
    engine.gemm(a.data(), b.data(), c.data(), m, 0, n);
    for (std::size_t i = 0; i < c.size(); ++i) {
        ASSERT_EQ(c[i], 0.0f) << "element " << i;
    }

    const Matrix with_bias = engine.multiply(a, b, GemmEpilogue::Bias, bias);
    const Matrix with_relu =
        engine.multiply(a, b, GemmEpilogue::BiasRelu, bias);
    const Matrix plain = engine.multiply(a, b);
    ASSERT_EQ(with_bias.rows(), m);
    ASSERT_EQ(with_bias.cols(), n);
    for (std::size_t r = 0; r < m; ++r) {
        for (std::size_t j = 0; j < n; ++j) {
            const float v = bias.at(0, j);
            EXPECT_EQ(with_bias.at(r, j), v);
            EXPECT_EQ(with_relu.at(r, j), v > 0.0f ? v : 0.0f);
            EXPECT_EQ(plain.at(r, j), 0.0f);
        }
    }
    // The transpose-free and column-max variants reduce over an empty
    // K the same way.
    expectBitExact(engine.multiplyTransposed(a, Matrix(n, 0)), Matrix(m, n));
    expectBitExact(engine.multiplyLeftTransposed(Matrix(0, m), b),
                   Matrix(m, n));
    const std::size_t segments[] = {2, m - 2};
    const Matrix maxima = engine.multiplyColumnMax(a, b, bias, segments);
    expectBitExact(maxima, concatRows(std::vector<Matrix>{bias, bias}));
}

// ---------------------------------------------------------------------
// Column maxima of A * B + bias without storing the product
// ---------------------------------------------------------------------

/** Bit patterns equal: == plus the sign of zero, and NaN to NaN. */
void
expectSameBits(const Matrix &got, const Matrix &want)
{
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    for (std::size_t i = 0; i < got.numel(); ++i) {
        const float g = got.data()[i];
        const float w = want.data()[i];
        if (std::isnan(w)) {
            ASSERT_TRUE(std::isnan(g)) << "element " << i << ": " << g;
            continue;
        }
        ASSERT_EQ(g, w) << "element " << i;
        ASSERT_EQ(std::signbit(g), std::signbit(w)) << "element " << i;
    }
}

/** multiply() with the Bias epilogue, then GlobalMaxPool's rule per
 *  segment (the first row wins ties, NaN only from the first row). */
Matrix
referenceColumnMax(GemmEngine &engine, const Matrix &a, const Matrix &b,
                   const Matrix &bias, std::span<const std::size_t> segments)
{
    const Matrix c = engine.multiply(a, b, GemmEpilogue::Bias, bias);
    Matrix out(segments.size(), c.cols());
    std::size_t first = 0;
    for (std::size_t s = 0; s < segments.size(); ++s) {
        for (std::size_t j = 0; j < c.cols(); ++j) {
            float best = c.at(first, j);
            for (std::size_t r = first + 1; r < first + segments[s]; ++r) {
                best = c.at(r, j) > best ? c.at(r, j) : best;
            }
            out.at(s, j) = best;
        }
        first += segments[s];
    }
    return out;
}

/**
 * multiplyColumnMax against multiply + the pool, bit for bit, across
 * row remainders of the 6-row microkernel and the 48-row task block,
 * one and several segments, thin and wide K and N. The engine runs
 * GemmMode::Auto, so thin K takes the scalar policy and wide K the
 * fast one under the Auto dispatch path.
 */
void
checkColumnMaxOnPath(GemmDispatchPath path)
{
    const DispatchPathGuard guard(path);
    GemmEngine engine(GemmMode::Auto);
    const std::vector<std::vector<std::size_t>> layouts = {
        {1},      {5},          {6},         {7},         {47},
        {48},     {49},         {97},        {200},       {48, 48},
        {1, 5},   {3, 1, 50, 49, 97},        {100, 5, 1}, {13, 96, 2}};
    std::uint64_t seed = 13000;
    for (const std::vector<std::size_t> &segments : layouts) {
        std::size_t m = 0;
        for (const std::size_t rows : segments) {
            m += rows;
        }
        for (const std::size_t k : {1, 17, 192}) {
            for (const std::size_t n : {1, 33, 64}) {
                SCOPED_TRACE(testing::Message()
                             << "m=" << m << " segments=" << segments.size()
                             << " k=" << k << " n=" << n);
                const Matrix a = randomMatrix(m, k, seed++);
                const Matrix b = randomMatrix(k, n, seed++);
                const Matrix bias = randomMatrix(1, n, seed++);
                expectSameBits(engine.multiplyColumnMax(a, b, bias, segments),
                               referenceColumnMax(engine, a, b, bias,
                                                  segments));
            }
        }
    }
}

TEST(GemmColumnMax, MatchesMultiplyThenPoolForcedScalar)
{
    checkColumnMaxOnPath(GemmDispatchPath::ForceScalar);
}

TEST(GemmColumnMax, MatchesMultiplyThenPoolAutoDispatch)
{
    checkColumnMaxOnPath(GemmDispatchPath::Auto);
}

/**
 * The pool's edge cases, placed where the streamed route splits its
 * work: NaN in a segment's first row (sticks), NaN in the first row
 * of a later 48-row block (skipped), and +0/-0 ties whose rows sit in
 * different blocks (the earlier row wins). A row of A holds one of
 * x in {-3, +1e-25, -1e-25, NaN} followed by fifteen -0, and B is all
 * 1e-25, so the FMA build rounds x * 1e-25 to -3e-25, +0, -0 or NaN
 * (the bias is -0, which keeps each). The scalar build turns -0 into
 * +0 (its product is rounded before it is added to +0), so there the
 * ties are plain zeros.
 */
void
checkColumnMaxEdgeCases(GemmDispatchPath path)
{
    const DispatchPathGuard guard(path);
    GemmEngine engine(GemmMode::Auto);
    const std::size_t k = 16;
    const std::size_t n = 20;
    const std::size_t segments[] = {60, 110, 7, 53};
    const std::size_t m = 230;
    const float nan = std::nanf("");
    std::vector<float> lead(m, -3.0f);
    lead[0] = 1e-25f;   // seg 0 opens at +0 ...
    lead[48] = -1e-25f; // ... and ties with -0 in its second block.
    lead[60] = -1e-25f; // seg 1 opens at -0 ...
    lead[108] = nan;    // ... a NaN opens its second block ...
    lead[109] = 1e-25f; // ... and +0 there ties with the -0 ...
    lead[156] = 1e-25f; // ... as does +0 in its third block.
    lead[170] = nan;    // seg 2 opens with NaN.
    lead[225] = nan;    // seg 3: NaN opens its second block,
    lead[226] = 1e-25f; // then +0 beats -3e-25
    lead[227] = -1e-25f; // and -0 ties with it.
    Matrix a(m, k, kUninitialized);
    for (std::size_t i = 0; i < m; ++i) {
        a.at(i, 0) = lead[i];
        for (std::size_t kk = 1; kk < k; ++kk) {
            a.at(i, kk) = -0.0f;
        }
    }
    const Matrix b(k, n, std::vector<float>(k * n, 1e-25f));
    const Matrix bias(1, n, std::vector<float>(n, -0.0f));

    const Matrix got = engine.multiplyColumnMax(a, b, bias, segments);
    expectSameBits(got, referenceColumnMax(engine, a, b, bias, segments));
    const bool fma = path == GemmDispatchPath::Auto &&
                     GemmEngine::fastKernelAvailable();
    for (std::size_t j = 0; j < n; ++j) {
        EXPECT_EQ(got.at(0, j), 0.0f);
        EXPECT_FALSE(std::signbit(got.at(0, j)));
        EXPECT_EQ(got.at(1, j), 0.0f);
        EXPECT_EQ(std::signbit(got.at(1, j)), fma);
        EXPECT_TRUE(std::isnan(got.at(2, j)));
        EXPECT_EQ(got.at(3, j), 0.0f);
        EXPECT_FALSE(std::signbit(got.at(3, j)));
    }
    if (fma) {
        // The -0 rows really are -0 in the stored product.
        const Matrix c = engine.multiply(a, b, GemmEpilogue::Bias, bias);
        EXPECT_TRUE(std::signbit(c.at(48, 0)));
        EXPECT_FALSE(std::signbit(c.at(0, 0)));
    }
}

TEST(GemmColumnMax, NanAndSignedZeroTiesForcedScalar)
{
    checkColumnMaxEdgeCases(GemmDispatchPath::ForceScalar);
}

TEST(GemmColumnMax, NanAndSignedZeroTiesAutoDispatch)
{
    checkColumnMaxEdgeCases(GemmDispatchPath::Auto);
}

// ---------------------------------------------------------------------
// [A | broadcast(row)] W + b with the row folded into the bias
// ---------------------------------------------------------------------

/** Pins the int8 route off, restoring the override on scope exit. */
class QuantOffGuard
{
  public:
    QuantOffGuard() : saved(quantGemmMode())
    {
        setQuantGemmMode(QuantMode::Off);
    }
    ~QuantOffGuard() { setQuantGemmMode(saved); }

  private:
    QuantMode saved;
};

/**
 * Linear::forwardRowConcat against the fp64 value of the materialized
 * operand times W plus b, within the forward-error bound of
 * row_concat_oracle.hpp, across the microkernel's row remainders (m),
 * empty and wide heads, and tails from one column to a global-feature
 * width. The engine runs GemmMode::Auto, so thin K takes the scalar
 * policy and wide K the fast one under the Auto dispatch path.
 */
void
checkRowConcatFoldOnPath(GemmDispatchPath path)
{
    const DispatchPathGuard guard(path);
    // The fp32 route: int8 (EDGEPC_GEMM=int8) quantizes the
    // materialized operand and is budgeted in test_quant.cpp.
    const QuantOffGuard quant;
    GemmEngine engine(GemmMode::Auto);
    const std::size_t n = 33;
    std::uint64_t seed = 12000;
    for (const std::size_t m : {1, 5, 6, 7, 13, 97}) {
        for (const std::size_t left : {0, 1, 64, 192}) {
            for (const std::size_t width : {1, 17, 1024}) {
                SCOPED_TRACE(testing::Message() << "m=" << m << " left="
                                                << left << " width=" << width);
                Rng rng(seed++);
                Linear linear(left + width, n, rng, &engine);
                linear.biases().value = randomMatrix(1, n, seed++);
                const Matrix a = randomMatrix(m, left, seed++);
                const Matrix row = randomMatrix(1, width, seed++);
                testing_oracle::expectWithinRowConcatBound(
                    linear.forwardRowConcat(a, row), a, row,
                    linear.weights().value, linear.biases().value);
            }
        }
    }
}

TEST(GemmRowConcat, FoldWithinFp64BoundForcedScalar)
{
    checkRowConcatFoldOnPath(GemmDispatchPath::ForceScalar);
}

TEST(GemmRowConcat, FoldWithinFp64BoundAutoDispatch)
{
    checkRowConcatFoldOnPath(GemmDispatchPath::Auto);
}

} // namespace
} // namespace nn
} // namespace edgepc
