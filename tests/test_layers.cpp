/** @file Unit tests for NN layers (forward behaviour). */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "nn/delayed_agg.hpp"
#include "nn/layers.hpp"
#include "nn/quant.hpp"

namespace edgepc {
namespace nn {
namespace {

/**
 * Pin the quantized GEMM route off for a test that asserts exact fp32
 * arithmetic, so an EDGEPC_GEMM=int8 environment cannot reroute the
 * layer through the int8 kernel.
 */
class QuantOffGuard
{
  public:
    QuantOffGuard() : quant(quantGemmMode())
    {
        setQuantGemmMode(QuantMode::Off);
    }
    ~QuantOffGuard() { setQuantGemmMode(quant); }

  private:
    QuantMode quant;
};

TEST(Linear, ForwardAppliesWeightsAndBias)
{
    QuantOffGuard guard;
    Rng rng(1);
    Linear layer(2, 1, rng);
    layer.weights().value.at(0, 0) = 2.0f;
    layer.weights().value.at(1, 0) = -1.0f;
    layer.biases().value.at(0, 0) = 0.5f;

    Matrix x(1, 2, {3, 4});
    const Matrix y = layer.forward(x, false);
    EXPECT_FLOAT_EQ(y.at(0, 0), 3 * 2 - 4 + 0.5f);
}

TEST(Linear, ShapePropagation)
{
    Rng rng(2);
    Linear layer(8, 16, rng);
    Matrix x(10, 8);
    const Matrix y = layer.forward(x, false);
    EXPECT_EQ(y.rows(), 10u);
    EXPECT_EQ(y.cols(), 16u);
    EXPECT_EQ(layer.inDim(), 8u);
    EXPECT_EQ(layer.outDim(), 16u);
}

TEST(ReLU, ClampsNegatives)
{
    ReLU relu;
    Matrix x(1, 4, {-1, 0, 2, -3});
    const Matrix y = relu.forward(x, false);
    EXPECT_FLOAT_EQ(y.at(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(y.at(0, 1), 0.0f);
    EXPECT_FLOAT_EQ(y.at(0, 2), 2.0f);
    EXPECT_FLOAT_EQ(y.at(0, 3), 0.0f);
}

TEST(ReLU, BackwardMasksGradient)
{
    ReLU relu;
    Matrix x(1, 3, {-1, 1, 2});
    relu.forward(x, true);
    Matrix dy(1, 3, {10, 20, 30});
    const Matrix dx = relu.backward(dy);
    EXPECT_FLOAT_EQ(dx.at(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(dx.at(0, 1), 20.0f);
    EXPECT_FLOAT_EQ(dx.at(0, 2), 30.0f);
}

TEST(LeakyReLU, ScalesNegativesBySlope)
{
    LeakyReLU lrelu(0.2f);
    Matrix x(1, 3, {-10, 0, 5});
    const Matrix y = lrelu.forward(x, false);
    EXPECT_FLOAT_EQ(y.at(0, 0), -2.0f);
    EXPECT_FLOAT_EQ(y.at(0, 1), 0.0f);
    EXPECT_FLOAT_EQ(y.at(0, 2), 5.0f);
}

TEST(LeakyReLU, BackwardScalesMaskedGradients)
{
    LeakyReLU lrelu(0.25f);
    Matrix x(1, 2, {-1, 2});
    lrelu.forward(x, true);
    Matrix dy(1, 2, {8, 8});
    const Matrix dx = lrelu.backward(dy);
    EXPECT_FLOAT_EQ(dx.at(0, 0), 2.0f); // 8 * 0.25
    EXPECT_FLOAT_EQ(dx.at(0, 1), 8.0f);
}

TEST(LeakyReLU, NeverFullyBlocksGradient)
{
    // Unlike ReLU, every unit passes some gradient — the property
    // that keeps the pre-pool features of DGCNN alive.
    LeakyReLU lrelu;
    Matrix x(1, 4, {-5, -1, -0.1f, -100});
    lrelu.forward(x, true);
    Matrix dy(1, 4, {1, 1, 1, 1});
    const Matrix dx = lrelu.backward(dy);
    for (std::size_t c = 0; c < 4; ++c) {
        EXPECT_GT(dx.at(0, c), 0.0f);
    }
}

TEST(BatchNorm, NormalizesBatchStatistics)
{
    BatchNorm bn(2);
    Matrix x(4, 2, {1, 10, 2, 20, 3, 30, 4, 40});
    const Matrix y = bn.forward(x, true);
    // Each column should have ~zero mean and ~unit variance.
    for (std::size_t c = 0; c < 2; ++c) {
        float mean = 0.0f, var = 0.0f;
        for (std::size_t r = 0; r < 4; ++r) {
            mean += y.at(r, c);
        }
        mean /= 4.0f;
        for (std::size_t r = 0; r < 4; ++r) {
            var += (y.at(r, c) - mean) * (y.at(r, c) - mean);
        }
        var /= 4.0f;
        EXPECT_NEAR(mean, 0.0f, 1e-4f);
        EXPECT_NEAR(var, 1.0f, 1e-2f);
    }
}

TEST(BatchNorm, SingleRowInferenceUsesRunningStats)
{
    BatchNorm bn(1);
    // Train on data with mean 10 to move the running stats.
    Matrix x(8, 1, {9, 10, 11, 10, 9, 11, 10, 10});
    for (int i = 0; i < 50; ++i) {
        bn.forward(x, true);
    }
    // A single-row input (the post-global-pool case) cannot form
    // batch statistics and is normalized by the running stats: an
    // input at the running mean maps near beta = 0.
    Matrix probe(1, 1, {10});
    const Matrix y = bn.forward(probe, false);
    EXPECT_NEAR(y.at(0, 0), 0.0f, 0.2f);
}

TEST(BatchNorm, MultiRowInferenceUsesInstanceStats)
{
    // Per-cloud (instance) statistics are used at inference for
    // multi-row batches, so a shifted copy of the training data
    // normalizes identically — the consistency that lets per-cloud-
    // trained models generalize (see the note in layers.cpp).
    BatchNorm bn(1);
    Matrix x(4, 1, {1, 2, 3, 4});
    const Matrix y_train = bn.forward(x, true);
    Matrix shifted(4, 1, {101, 102, 103, 104});
    const Matrix y_eval = bn.forward(shifted, false);
    for (std::size_t r = 0; r < 4; ++r) {
        EXPECT_NEAR(y_eval.at(r, 0), y_train.at(r, 0), 1e-4f);
    }
}

// LinearRelu must be indistinguishable from a separate Linear + ReLU
// pair with the same parameters — forward, backward and the
// serialized parameter stream.
TEST(LinearRelu, MatchesSeparateLinearPlusRelu)
{
    Rng rng_a(7);
    Rng rng_b(7);
    LinearRelu fused(4, 3, rng_a);
    Linear lin(4, 3, rng_b);
    ReLU relu;

    Rng data_rng(8);
    Matrix x(6, 4);
    x.fillNormal(data_rng, 1.0f);

    const Matrix y_fused = fused.forward(x, true);
    const Matrix y_pair = relu.forward(lin.forward(x, true), true);
    ASSERT_EQ(y_fused.rows(), y_pair.rows());
    ASSERT_EQ(y_fused.cols(), y_pair.cols());
    for (std::size_t i = 0; i < y_fused.numel(); ++i) {
        EXPECT_FLOAT_EQ(y_fused.data()[i], y_pair.data()[i])
            << "element " << i;
    }

    Matrix dy(6, 3);
    dy.fillNormal(data_rng, 1.0f);
    const Matrix dx_fused = fused.backward(dy);
    const Matrix dx_pair = lin.backward(relu.backward(dy));
    for (std::size_t i = 0; i < dx_fused.numel(); ++i) {
        EXPECT_NEAR(dx_fused.data()[i], dx_pair.data()[i], 1e-5f)
            << "element " << i;
    }

    std::vector<Parameter *> fused_params, pair_params;
    fused.collectParameters(fused_params);
    lin.collectParameters(pair_params);
    relu.collectParameters(pair_params);
    ASSERT_EQ(fused_params.size(), pair_params.size());
    for (std::size_t p = 0; p < fused_params.size(); ++p) {
        const Matrix &fg = fused_params[p]->grad;
        const Matrix &pg = pair_params[p]->grad;
        ASSERT_EQ(fg.numel(), pg.numel());
        for (std::size_t i = 0; i < fg.numel(); ++i) {
            EXPECT_NEAR(fg.data()[i], pg.data()[i], 1e-5f)
                << "param " << p << " element " << i;
        }
    }
}

TEST(Sequential, AddLinearReluAppendsOneLayer)
{
    Rng rng(10);
    Sequential seq;
    seq.addLinearRelu(4, 8, rng);
    EXPECT_EQ(seq.size(), 1u);
    std::vector<Parameter *> params;
    seq.collectParameters(params);
    EXPECT_EQ(params.size(), 2u); // weight + bias, ReLU is parameterless
}

TEST(Sequential, ChainsLayers)
{
    Rng rng(3);
    Sequential seq;
    seq.addLinearBnRelu(4, 8, rng);
    seq.addLinearBnRelu(8, 2, rng);
    EXPECT_EQ(seq.size(), 6u);
    Matrix x(5, 4);
    x.fillNormal(rng, 1.0f);
    const Matrix y = seq.forward(x, false);
    EXPECT_EQ(y.rows(), 5u);
    EXPECT_EQ(y.cols(), 2u);

    std::vector<Parameter *> params;
    seq.collectParameters(params);
    // 2 x (linear W+b, bn gamma+beta) = 8 parameters.
    EXPECT_EQ(params.size(), 8u);
}

TEST(MaxPoolNeighbors, PoolsGroupsOfRows)
{
    MaxPoolNeighbors pool(2);
    Matrix x(4, 2, {1, 8, 3, 2, -5, 0, -1, -7});
    const Matrix y = pool.forward(x, false);
    ASSERT_EQ(y.rows(), 2u);
    EXPECT_FLOAT_EQ(y.at(0, 0), 3.0f);
    EXPECT_FLOAT_EQ(y.at(0, 1), 8.0f);
    EXPECT_FLOAT_EQ(y.at(1, 0), -1.0f);
    EXPECT_FLOAT_EQ(y.at(1, 1), 0.0f);
}

TEST(MaxPoolNeighbors, BackwardRoutesToArgmax)
{
    MaxPoolNeighbors pool(2);
    Matrix x(4, 1, {1, 3, 5, 2});
    pool.forward(x, true);
    Matrix dy(2, 1, {10, 20});
    const Matrix dx = pool.backward(dy);
    EXPECT_FLOAT_EQ(dx.at(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(dx.at(1, 0), 10.0f);
    EXPECT_FLOAT_EQ(dx.at(2, 0), 20.0f);
    EXPECT_FLOAT_EQ(dx.at(3, 0), 0.0f);
}

TEST(GlobalMaxPool, ReducesToOneRow)
{
    GlobalMaxPool pool;
    Matrix x(3, 2, {1, 9, 7, 2, 4, 5});
    const Matrix y = pool.forward(x, true);
    ASSERT_EQ(y.rows(), 1u);
    EXPECT_FLOAT_EQ(y.at(0, 0), 7.0f);
    EXPECT_FLOAT_EQ(y.at(0, 1), 9.0f);

    Matrix dy(1, 2, {100, 200});
    const Matrix dx = pool.backward(dy);
    EXPECT_FLOAT_EQ(dx.at(1, 0), 100.0f);
    EXPECT_FLOAT_EQ(dx.at(0, 1), 200.0f);
    EXPECT_FLOAT_EQ(dx.at(2, 0), 0.0f);
}


// ---------------------------------------------------------------------
// FusedTail: the in-place BatchNorm + activation (+ neighbor max-pool)
// inference kernels against the unfused loops they replaced, which are
// kept below as the oracle. Comparisons are float == (+0 == -0), with
// NaN matching NaN.
// ---------------------------------------------------------------------

/** Oracle: BatchNorm::forward(x, false) as the serial loops computed it. */
Matrix
oracleBatchNorm(const Matrix &input, std::span<const float> g,
                std::span<const float> b, std::span<const float> rm,
                std::span<const float> rv, float eps)
{
    const std::size_t rows = input.rows();
    const std::size_t cols = input.cols();
    Matrix out(rows, cols);
    std::vector<float> mean(cols, 0.0f), var(cols, 0.0f), inv(cols);
    if (rows > 1) {
        for (std::size_t r = 0; r < rows; ++r) {
            const float *row = input.data() + r * cols;
            for (std::size_t c = 0; c < cols; ++c) {
                mean[c] += row[c];
            }
        }
        const float inv_rows = 1.0f / static_cast<float>(rows);
        for (std::size_t c = 0; c < cols; ++c) {
            mean[c] *= inv_rows;
        }
        for (std::size_t r = 0; r < rows; ++r) {
            const float *row = input.data() + r * cols;
            for (std::size_t c = 0; c < cols; ++c) {
                const float d = row[c] - mean[c];
                var[c] += d * d;
            }
        }
        for (std::size_t c = 0; c < cols; ++c) {
            var[c] *= inv_rows;
        }
    } else {
        mean.assign(rm.begin(), rm.end());
        var.assign(rv.begin(), rv.end());
    }
    for (std::size_t c = 0; c < cols; ++c) {
        inv[c] = 1.0f / std::sqrt(var[c] + eps);
    }
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            const float normalized = (input.at(r, c) - mean[c]) * inv[c];
            out.at(r, c) = g[c] * normalized + b[c];
        }
    }
    return out;
}

/** Oracle: ReLU / LeakyReLU forward loops. */
void
oracleActivate(Matrix &m, Activation act)
{
    float *data = m.data();
    for (std::size_t i = 0; i < m.numel(); ++i) {
        if (data[i] > 0.0f) {
            continue;
        }
        if (act.kind == Activation::Kind::Relu) {
            data[i] = 0.0f;
        } else if (act.kind == Activation::Kind::LeakyRelu) {
            data[i] *= act.slope;
        }
    }
}

/** Oracle: MaxPoolNeighbors forward loop. */
Matrix
oracleMaxPool(const Matrix &input, std::size_t k)
{
    const std::size_t points = input.rows() / k;
    const std::size_t cols = input.cols();
    Matrix out(points, cols);
    for (std::size_t p = 0; p < points; ++p) {
        for (std::size_t c = 0; c < cols; ++c) {
            out.at(p, c) = input.at(p * k, c);
        }
        for (std::size_t j = 1; j < k; ++j) {
            for (std::size_t c = 0; c < cols; ++c) {
                if (input.at(p * k + j, c) > out.at(p, c)) {
                    out.at(p, c) = input.at(p * k + j, c);
                }
            }
        }
    }
    return out;
}

/** BatchNorm parameters set by hand, plus the oracle over segments. */
struct TailFixture
{
    explicit TailFixture(std::size_t cols) : bn(cols)
    {
        std::vector<Parameter *> params;
        bn.collectParameters(params);
        gamma = &params[0]->value;
        beta = &params[1]->value;
        std::vector<std::vector<float> *> buffers;
        bn.collectBuffers(buffers);
        runMean = buffers[0];
        runVar = buffers[1];
        // Mixed-sign scales: positive, zero and negative columns.
        const float g[] = {1.5f, -0.75f, 0.0f, 2.0f, -3.0f, 0.5f, -0.0f};
        for (std::size_t c = 0; c < cols; ++c) {
            gamma->at(0, c) = g[c % 7] * (1.0f + 0.01f * c);
            beta->at(0, c) = 0.1f * static_cast<float>(c % 5) - 0.2f;
            (*runMean)[c] = 0.05f * static_cast<float>(c);
            (*runVar)[c] = 0.5f + 0.1f * static_cast<float>(c % 3);
        }
    }

    Matrix oracleRows(const Matrix &x, std::span<const std::size_t> segs,
                      Activation act, bool norm = true) const
    {
        Matrix out(x.rows(), x.cols());
        std::size_t offset = 0;
        for (const std::size_t rows : segs) {
            Matrix seg = sliceRows(x, offset, offset + rows);
            Matrix y = norm ? oracleBatchNorm(seg, gamma->row(0),
                                              beta->row(0), *runMean,
                                              *runVar, 1e-5f)
                            : seg;
            oracleActivate(y, act);
            std::copy(y.data(), y.data() + y.numel(),
                      out.data() + offset * x.cols());
            offset += rows;
        }
        return out;
    }

    BatchNorm bn;
    Matrix *gamma;
    Matrix *beta;
    std::vector<float> *runMean;
    std::vector<float> *runVar;
};

void
expectSameValues(const Matrix &got, const Matrix &want, const char *what)
{
    ASSERT_EQ(got.rows(), want.rows()) << what;
    ASSERT_EQ(got.cols(), want.cols()) << what;
    for (std::size_t i = 0; i < got.numel(); ++i) {
        const float a = got.data()[i];
        const float b = want.data()[i];
        if (std::isnan(b)) {
            EXPECT_TRUE(std::isnan(a)) << what << " element " << i;
        } else {
            EXPECT_EQ(a, b) << what << " element " << i << " (row "
                            << i / got.cols() << ", col " << i % got.cols()
                            << ")";
        }
    }
}

const Activation kActivations[] = {
    {Activation::Kind::Identity, 0.0f},
    {Activation::Kind::Relu, 0.0f},
    {Activation::Kind::LeakyRelu, 0.2f},
};

Matrix
randomMatrix(std::size_t rows, std::size_t cols, std::uint64_t seed)
{
    Rng rng(seed);
    Matrix m(rows, cols);
    m.fillNormal(rng, 2.0f);
    for (std::size_t i = 0; i < m.numel(); i += 7) {
        m.data()[i] += 3.0f; // skew, so max and min pools differ
    }
    return m;
}

/** Pathological columns: NaN, +-Inf, +-0 and overflow-scale values. */
Matrix
nonFiniteMatrix(std::size_t rows, std::size_t cols)
{
    Matrix m = randomMatrix(rows, cols, 77);
    const float inf = std::numeric_limits<float>::infinity();
    for (std::size_t r = 0; r < rows; ++r) {
        m.at(r, 0) = r == 3 ? std::nanf("") : m.at(r, 0);
        m.at(r, 1) = r == 5 ? inf : m.at(r, 1);
        m.at(r, 2) = r == 2 ? -inf : m.at(r, 2);
        m.at(r, 3) = (r % 2 == 0) ? 0.0f : -0.0f;
        m.at(r, 4) = (r % 2 == 0) ? 3e38f : -3e38f;
        m.at(r, 5) = r == 0 ? std::nanf("") : m.at(r, 5);
    }
    return m;
}

TEST(FusedTail, RowsMatchOracleAcrossSegments)
{
    const std::size_t cols = 19;
    TailFixture fx(cols);
    const Matrix x = randomMatrix(64, cols, 11);
    // Several segments, single rows among them (running statistics).
    const std::size_t segs[] = {20, 1, 30, 1, 12};
    const TailNorm norm = fx.bn.tailNorm(cols);
    for (const Activation act : kActivations) {
        const Matrix want = fx.oracleRows(x, segs, act);
        Matrix out(x.rows(), cols);
        fusedTailRows(x, out, segs, &norm, act);
        expectSameValues(out, want, "out of place");
        Matrix in_place = x;
        fusedTailRows(in_place, in_place, segs, &norm, act);
        expectSameValues(in_place, want, "in place");
    }
}

TEST(FusedTail, StandaloneLayersMatchOracle)
{
    const std::size_t cols = 9;
    TailFixture fx(cols);
    const Matrix x = nonFiniteMatrix(16, cols);
    const std::size_t whole[] = {16};
    expectSameValues(fx.bn.forward(x, false),
                     fx.oracleRows(x, whole, kActivations[0]), "BatchNorm");
    const Matrix one = sliceRows(x, 6, 7);
    const std::size_t single[] = {1};
    expectSameValues(fx.bn.forward(one, false),
                     fx.oracleRows(one, single, kActivations[0]),
                     "BatchNorm single row");
    ReLU relu;
    expectSameValues(relu.forward(x, false),
                     fx.oracleRows(x, whole, kActivations[1], false), "ReLU");
    LeakyReLU leaky(0.25f);
    expectSameValues(
        leaky.forward(x, false),
        fx.oracleRows(x, whole, {Activation::Kind::LeakyRelu, 0.25f}, false),
        "LeakyReLU");
}

TEST(FusedTail, TrainingStatisticsMatchOracle)
{
    // forward(train=true) shares the column-statistics routine; its
    // output must still equal the serial two-pass loops bit for bit.
    const std::size_t cols = 21;
    TailFixture fx(cols);
    const Matrix x = randomMatrix(300, cols, 12);
    const std::size_t whole[] = {300};
    const Matrix want = fx.oracleRows(x, whole, kActivations[0]);
    expectSameValues(fx.bn.forward(x, true), want, "train forward");

    std::vector<float> mean(cols), var(cols);
    columnStats(x.data(), x.rows(), cols, mean.data(), var.data());
    for (std::size_t c = 0; c < cols; ++c) {
        float m = 0.0f;
        for (std::size_t r = 0; r < x.rows(); ++r) {
            m += x.at(r, c);
        }
        m *= 1.0f / 300.0f;
        float v = 0.0f;
        for (std::size_t r = 0; r < x.rows(); ++r) {
            const float d = x.at(r, c) - m;
            v += d * d;
        }
        EXPECT_EQ(mean[c], m) << "column " << c;
        EXPECT_EQ(var[c], v * (1.0f / 300.0f)) << "column " << c;
    }
}

/** Linear -> BatchNorm -> act -> pool, fused vs the unfused oracle. */
void
expectPooledBlockMatchesOracle(Activation act)
{
    QuantOffGuard guard;
    const std::size_t in = 6, cols = 23;
    Rng rng(21);
    Sequential block;
    block.add(std::make_unique<Linear>(in, cols, rng));
    block.add(std::make_unique<BatchNorm>(cols));
    if (act.kind == Activation::Kind::Relu) {
        block.add(std::make_unique<ReLU>());
    } else {
        block.add(std::make_unique<LeakyReLU>(act.slope));
    }
    TailFixture fx(cols);
    // Copy the fixture's mixed-sign parameters into the block's BN.
    std::vector<Parameter *> params;
    block.collectParameters(params);
    params[2]->value = *fx.gamma;
    params[3]->value = *fx.beta;
    std::vector<std::vector<float> *> buffers;
    block.collectBuffers(buffers);
    *buffers[0] = *fx.runMean;
    *buffers[1] = *fx.runVar;

    // Segments of 7 groups of k=5, one single row (k=1, running
    // statistics), 4 groups of k=1 and 3 groups of k=9.
    const std::size_t segs[] = {35, 1, 4, 27};
    const std::size_t ks[] = {5, 1, 1, 9};
    const Matrix x = randomMatrix(67, in, 31);
    for (const auto path : {GemmDispatchPath::ForceScalar,
                            GemmDispatchPath::Auto}) {
        GemmEngine::setDispatchPath(path);
        auto *lin = dynamic_cast<Linear *>(block.layerAt(0));
        const Matrix pre = lin->forward(x, false);
        const Matrix act_rows = fx.oracleRows(pre, segs, act);
        const std::vector<Matrix> got = block.forwardPooled(x, segs, ks);
        ASSERT_EQ(got.size(), 4u);
        std::size_t offset = 0;
        for (std::size_t s = 0; s < 4; ++s) {
            const Matrix want = oracleMaxPool(
                sliceRows(act_rows, offset, offset + segs[s]), ks[s]);
            expectSameValues(got[s], want, "pooled segment");
            offset += segs[s];
        }
        // The unpooled tail through the same in-place route.
        expectSameValues(block.forwardSegmented(x, segs), act_rows,
                         "segmented rows");
    }
    GemmEngine::setDispatchPath(GemmDispatchPath::Auto);
}

TEST(FusedTail, PooledReluBlockMatchesOracle)
{
    expectPooledBlockMatchesOracle({Activation::Kind::Relu, 0.0f});
}

TEST(FusedTail, PooledLeakyBlockMatchesOracle)
{
    expectPooledBlockMatchesOracle({Activation::Kind::LeakyRelu, 0.2f});
}

TEST(FusedTail, PooledNonFiniteRowsMatchOracle)
{
    // NaN, +-Inf and overflow columns are outside the pool-first
    // argument; the kernel must still equal the unfused order.
    const std::size_t cols = 11;
    TailFixture fx(cols);
    const TailNorm norm = fx.bn.tailNorm(cols);
    const Matrix x = nonFiniteMatrix(24, cols);
    const std::size_t segs[] = {24};
    for (const std::size_t k : {std::size_t{1}, std::size_t{4},
                                std::size_t{24}}) {
        const std::size_t ks[] = {k};
        for (const Activation act : kActivations) {
            for (const bool with_norm : {true, false}) {
                Matrix out(24 / k, cols);
                fusedTailPool(x, segs, ks, with_norm ? &norm : nullptr, act,
                              std::span<Matrix>(&out, 1));
                const Matrix want =
                    oracleMaxPool(fx.oracleRows(x, segs, act, with_norm), k);
                expectSameValues(out, want, "non-finite pool");
            }
        }
    }
    // Finite columns only: the pool-first route, signed zeros included.
    Matrix finite(24, 4);
    for (std::size_t r = 0; r < 24; ++r) {
        for (std::size_t c = 0; c < 4; ++c) {
            finite.at(r, c) = x.at(r, c + 6);
        }
        finite.at(r, 1) = (r % 3 == 0) ? -0.0f : 0.0f;
    }
    TailFixture fx4(4);
    const TailNorm norm4 = fx4.bn.tailNorm(4);
    const std::size_t ks[] = {6};
    for (const Activation act : kActivations) {
        Matrix out(4, 4);
        fusedTailPool(finite, segs, ks, &norm4, act,
                      std::span<Matrix>(&out, 1));
        expectSameValues(out, oracleMaxPool(fx4.oracleRows(finite, segs, act),
                                            6),
                         "signed zeros");
    }
}

TEST(FusedTail, GlobalPoolAfterLeakyMatchesOracle)
{
    // DGCNN's embedding: Linear -> LeakyReLU -> global max-pool, the
    // pool over one group of every row, split across columns.
    QuantOffGuard guard;
    Rng rng(41);
    Sequential embed;
    embed.add(std::make_unique<Linear>(5, 150, rng));
    embed.add(std::make_unique<LeakyReLU>(0.2f));
    const Matrix x = randomMatrix(97, 5, 42);
    for (const auto path : {GemmDispatchPath::ForceScalar,
                            GemmDispatchPath::Auto}) {
        GemmEngine::setDispatchPath(path);
        const std::size_t rows[] = {97};
        const Matrix pooled = embed.forwardPooled(x, rows, rows).front();
        GlobalMaxPool pool;
        expectSameValues(pooled, pool.forward(embed.forward(x, true), true),
                         "global pool");
    }
    GemmEngine::setDispatchPath(GemmDispatchPath::Auto);
}

TEST(FusedTail, DelayedEdgeFormMatchesMaterializedRows)
{
    // psi/phi form of a delayed EdgeConv: statistics and pool read
    // psi[i] + phi[j] directly, never the (n*k)-row matrix.
    QuantOffGuard guard;
    const std::size_t n = 40, c_in = 7, c_out = 13, k = 6;
    Rng rng(51);
    Matrix features(n, c_in);
    features.fillNormal(rng, 1.0f);
    Matrix weight(2 * c_in, c_out), bias(1, c_out);
    weight.fillNormal(rng, 0.5f);
    bias.fillNormal(rng, 0.5f);
    NeighborLists lists;
    lists.k = k;
    for (std::size_t i = 0; i < n * k; ++i) {
        lists.indices.push_back(
            static_cast<std::uint32_t>((i * 7 + i / k) % n));
    }
    TailFixture fx(c_out);
    const TailNorm norm = fx.bn.tailNorm(c_out);
    for (const auto path : {GemmDispatchPath::ForceScalar,
                            GemmDispatchPath::Auto}) {
        GemmEngine::setDispatchPath(path);
        GemmEngine &engine = GemmEngine::globalEngine();
        const Matrix pre = delayedEdgeFirstLinear(features, lists, weight,
                                                  bias, engine, nullptr);
        const std::size_t segs[] = {n * k};
        for (const Activation act : kActivations) {
            const Matrix got = delayedEdgeConvInfer(features, lists, weight,
                                                    bias, norm, act, engine);
            expectSameValues(got,
                             oracleMaxPool(fx.oracleRows(pre, segs, act), k),
                             "edge form");
        }
    }
    GemmEngine::setDispatchPath(GemmDispatchPath::Auto);
}

TEST(FusedTail, InferenceNeverWritesCallerMatrices)
{
    QuantOffGuard guard;
    Rng rng(61);
    Sequential seq;
    seq.addLinearBnRelu(4, 8, rng);
    const Matrix pre = randomMatrix(12, 8, 62);
    const Matrix pre_copy = pre;
    // Starting at layer 1, the first pass is BatchNorm on the caller's
    // rows: it must write a new matrix, not the input.
    const std::size_t whole[] = {12};
    const Matrix tail = seq.forwardFrom(1, pre, false);
    expectSameValues(pre, pre_copy, "forwardFrom input");
    const std::size_t segs[] = {5, 7};
    const Matrix seg_tail = seq.forwardSegmented(pre, segs, 1);
    expectSameValues(pre, pre_copy, "forwardSegmented input");
    const std::size_t ks[] = {5, 7};
    const std::vector<Matrix> pooled = seq.forwardPooled(pre, segs, ks, 1);
    expectSameValues(pre, pre_copy, "forwardPooled input");

    // The owning forms run in place and give the same values.
    expectSameValues(seq.forwardSegmented(Matrix(pre), whole, 1), tail,
                     "owned forwardFrom");
    expectSameValues(seq.forwardSegmented(Matrix(pre), segs, 1), seg_tail,
                     "owned forwardSegmented");
    const std::vector<Matrix> owned_pooled =
        seq.forwardPooled(Matrix(pre), segs, ks, 1);
    ASSERT_EQ(owned_pooled.size(), 2u);
    expectSameValues(owned_pooled[0], pooled[0], "owned pooled 0");
    expectSameValues(owned_pooled[1], pooled[1], "owned pooled 1");
}

} // namespace
} // namespace nn
} // namespace edgepc
