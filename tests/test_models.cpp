/** @file Integration tests for the PointNet++ and DGCNN models. */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/staged_pipeline.hpp"
#include "datasets/scenes.hpp"
#include "datasets/shapes.hpp"
#include "models/dgcnn.hpp"
#include "models/pointnet.hpp"
#include "models/pointnetpp.hpp"
#include "nn/delayed_agg.hpp"
#include "nn/gemm.hpp"
#include "nn/quant.hpp"
#include "row_concat_oracle.hpp"

namespace edgepc {

/**
 * The segmentation heads as they ran before the row-concat route: the
 * head's full forward over the materialized [features | broadcast(
 * pooled)] operand, from the model's own layers.
 */
struct ModelProbe
{
    /** What a segmentation head's first Linear reads. */
    struct HeadInputs
    {
        nn::Matrix features;
        nn::Matrix pooled;
    };

    /** Dgcnn: from the EdgeConv outputs of the last infer(). */
    static HeadInputs headInputs(Dgcnn &model)
    {
        nn::Matrix concat = nn::concatCols(model.ecOutputs);
        const std::size_t rows[] = {concat.rows()};
        nn::Matrix pooled = std::move(
            model.embedding.forwardPooled(concat, rows, rows).front());
        return {std::move(concat), std::move(pooled)};
    }

    static HeadInputs headInputs(PointNet &model, const PointCloud &cloud)
    {
        nn::Matrix coords(cloud.size(), 3);
        for (std::size_t i = 0; i < cloud.size(); ++i) {
            const Vec3 &p = cloud.position(i);
            coords.at(i, 0) = p.x;
            coords.at(i, 1) = p.y;
            coords.at(i, 2) = p.z;
        }
        nn::Matrix features = model.pointMlp.forward(coords, false);
        nn::Matrix pooled = model.globalPool.forward(features, false);
        return {std::move(features), std::move(pooled)};
    }

    /**
     * Dgcnn classification logits of the last infer()'s EdgeConv
     * outputs, the unfused way: the embedding Linear stored whole, its
     * LeakyReLU on every row, then GlobalMaxPool and the head.
     */
    static nn::Matrix storedEmbeddingLogits(Dgcnn &model)
    {
        const nn::Matrix concat = nn::concatCols(model.ecOutputs);
        nn::Matrix x = model.embedding.layerAt(0)->forward(concat, false);
        x = model.embedding.layerAt(1)->forward(x, false);
        nn::GlobalMaxPool pool;
        return model.head.forward(pool.forward(x, false), false);
    }

    static nn::Sequential &head(Dgcnn &model) { return model.head; }
    static nn::Sequential &head(PointNet &model) { return model.head; }
};

namespace {

/**
 * Pin the quantized GEMM route off for the delayed-vs-eager parity
 * tests: their tolerances are fp32 reassociation budgets, and an
 * EDGEPC_GEMM=int8 environment would reroute every Linear through the
 * int8 kernel (quantization error is budgeted in test_quant.cpp, not
 * here).
 */
class QuantOffGuard
{
  public:
    QuantOffGuard() : quant(nn::quantGemmMode())
    {
        nn::setQuantGemmMode(nn::QuantMode::Off);
    }
    ~QuantOffGuard() { nn::setQuantGemmMode(quant); }

  private:
    nn::QuantMode quant;
};

PointCloud
makeCloud(std::size_t points, std::uint64_t seed)
{
    Rng rng(seed);
    ShapeOptions options;
    options.points = points;
    return makeShape(ShapeClass::Torus, options, rng);
}

void
expectFinite(const nn::Matrix &m)
{
    for (std::size_t i = 0; i < m.numel(); ++i) {
        ASSERT_TRUE(std::isfinite(m.data()[i])) << "element " << i;
    }
}

TEST(PointNetPP, SegmentationForwardShapes)
{
    const PointCloud cloud = makeCloud(256, 1);
    PointNetPP model(PointNetPPConfig::liteSegmentation(256, 5), 7);
    EXPECT_FALSE(model.isClassifier());

    const nn::Matrix logits =
        model.infer(cloud, EdgePcConfig::baseline());
    EXPECT_EQ(logits.rows(), cloud.size());
    EXPECT_EQ(logits.cols(), 5u);
    expectFinite(logits);
}

TEST(PointNetPP, ClassificationForwardShapes)
{
    const PointCloud cloud = makeCloud(128, 2);
    PointNetPP model(PointNetPPConfig::liteClassification(128, 8), 7);
    EXPECT_TRUE(model.isClassifier());

    const nn::Matrix logits =
        model.infer(cloud, EdgePcConfig::baseline());
    EXPECT_EQ(logits.rows(), 1u);
    EXPECT_EQ(logits.cols(), 8u);
    expectFinite(logits);
}

TEST(PointNetPP, ApproximateConfigAlsoRuns)
{
    const PointCloud cloud = makeCloud(256, 3);
    PointNetPP model(PointNetPPConfig::liteSegmentation(256, 5), 7);
    const nn::Matrix logits = model.infer(cloud, EdgePcConfig::sn());
    EXPECT_EQ(logits.rows(), cloud.size());
    expectFinite(logits);
}

TEST(PointNetPP, StageTimerCoversAllStages)
{
    const PointCloud cloud = makeCloud(512, 4);
    PointNetPP model(PointNetPPConfig::liteSegmentation(512, 5), 7);
    StageTimer timer;
    model.infer(cloud, EdgePcConfig::baseline(), &timer);
    EXPECT_GT(timer.total(kStageSample), 0.0);
    EXPECT_GT(timer.total(kStageNeighbor), 0.0);
    EXPECT_GT(timer.total(kStageGroup), 0.0);
    EXPECT_GT(timer.total(kStageFeature), 0.0);
}

TEST(PointNetPP, MortonSamplingFasterOnLargeClouds)
{
    const PointCloud cloud = makeCloud(4096, 5);
    PointNetPP model(PointNetPPConfig::liteSegmentation(4096, 5), 7);

    StageTimer base_t, sn_t;
    model.infer(cloud, EdgePcConfig::baseline(), &base_t);
    model.infer(cloud, EdgePcConfig::sn(), &sn_t);
    const double base_sn =
        base_t.total(kStageSample) + base_t.total(kStageNeighbor);
    const double approx_sn =
        sn_t.total(kStageSample) + sn_t.total(kStageNeighbor);
    EXPECT_LT(approx_sn, base_sn);
}

TEST(PointNetPP, DeterministicAcrossRuns)
{
    const PointCloud cloud = makeCloud(128, 6);
    PointNetPP model(PointNetPPConfig::liteClassification(128, 8), 7);
    const nn::Matrix a = model.infer(cloud, EdgePcConfig::baseline());
    const nn::Matrix b = model.infer(cloud, EdgePcConfig::baseline());
    for (std::size_t i = 0; i < a.numel(); ++i) {
        EXPECT_FLOAT_EQ(a.data()[i], b.data()[i]);
    }
}

TEST(PointNetPP, PaperScaleConfigConstructs)
{
    const auto cfg = PointNetPPConfig::semanticSegmentation(8192, 13);
    ASSERT_EQ(cfg.sa.size(), 4u);
    ASSERT_EQ(cfg.fp.size(), 4u);
    EXPECT_EQ(cfg.sa[0].points, 1024u);
    EXPECT_EQ(cfg.sa[3].points, 16u);
    PointNetPP model(cfg, 7); // constructs all weights
    std::vector<nn::Parameter *> params;
    model.collectParameters(params);
    EXPECT_GT(params.size(), 40u);
}

// ---------------------------------------------------------------------
// Delayed-aggregation accuracy parity (DESIGN.md §13): the delayed and
// eager routes share parameters, so same-seed models must produce the
// same logits on the three synthetic tasks, up to the float
// reassociation the route swap introduces.
// ---------------------------------------------------------------------

void
expectLogitsNear(const nn::Matrix &a, const nn::Matrix &b, float tol)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    for (std::size_t i = 0; i < a.numel(); ++i) {
        ASSERT_NEAR(a.data()[i], b.data()[i], tol) << "logit " << i;
    }
}

TEST(PointNetPP, DelayedAggregationMatchesEagerClassification)
{
    QuantOffGuard guard;
    const PointCloud cloud = makeCloud(128, 21);
    PointNetPPConfig eager_cfg =
        PointNetPPConfig::liteClassification(128, 8);
    eager_cfg.delayedAggregation = nn::DelayedAggMode::Off;
    PointNetPPConfig delayed_cfg =
        PointNetPPConfig::liteClassification(128, 8);
    delayed_cfg.delayedAggregation = nn::DelayedAggMode::On;

    PointNetPP eager(eager_cfg, 7);
    PointNetPP delayed(delayed_cfg, 7);
    expectLogitsNear(eager.infer(cloud, EdgePcConfig::baseline()),
                     delayed.infer(cloud, EdgePcConfig::baseline()),
                     5e-3f);
}

TEST(PointNetPP, DelayedAggregationMatchesEagerSegmentation)
{
    QuantOffGuard guard;
    const PointCloud cloud = makeCloud(256, 22);
    PointNetPPConfig eager_cfg =
        PointNetPPConfig::liteSegmentation(256, 5);
    eager_cfg.delayedAggregation = nn::DelayedAggMode::Off;
    PointNetPPConfig delayed_cfg =
        PointNetPPConfig::liteSegmentation(256, 5);
    delayed_cfg.delayedAggregation = nn::DelayedAggMode::On;

    PointNetPP eager(eager_cfg, 7);
    PointNetPP delayed(delayed_cfg, 7);
    // The approximate config also runs both routes (Morton kernels
    // change the neighbor lists, not the commute argument).
    for (const EdgePcConfig &config :
         {EdgePcConfig::baseline(), EdgePcConfig::sn()}) {
        expectLogitsNear(eager.infer(cloud, config),
                         delayed.infer(cloud, config), 5e-3f);
    }
}

// ------------------------------------------------ one inference route

/** Restores the process-wide GEMM dispatch path and delayed-aggregation
    override on scope exit. */
class RouteDispatchGuard
{
  public:
    ~RouteDispatchGuard()
    {
        nn::GemmEngine::setDispatchPath(gemm);
        nn::setDelayedAggMode(agg);
    }

  private:
    nn::GemmDispatchPath gemm = nn::GemmEngine::dispatchPath();
    nn::DelayedAggMode agg = nn::delayedAggMode();
};

PointCloud
sceneCloud(std::size_t points, std::uint64_t seed)
{
    Rng rng(seed);
    SceneOptions options;
    options.points = points;
    return makeScene(options, rng);
}

void
expectIdentical(const nn::Matrix &got, const nn::Matrix &want,
                const std::string &what)
{
    ASSERT_EQ(got.rows(), want.rows()) << what;
    ASSERT_EQ(got.cols(), want.cols()) << what;
    for (std::size_t i = 0; i < want.numel(); ++i) {
        ASSERT_EQ(got.data()[i], want.data()[i])
            << what << " diverges at flat index " << i;
    }
}

/**
 * infer, inferBatch (of one and of many), forward(train=false) and the
 * staged executor all run the same segmented feature stage, so their
 * logits must be equal bit for bit — no tolerance. The batch mixes two
 * scenes with a small outlier, so under Auto the per-cloud delayed
 * decision splits one batch across the eager and delayed routes. Int8
 * stays off: its activation scale is per stacked tensor, so batching
 * legitimately changes logits there.
 */
TEST(PointNetPPRoute, EveryEntryPointGivesIdenticalLogits)
{
    QuantOffGuard quant;
    RouteDispatchGuard dispatch;
    const std::vector<PointCloud> clouds = {
        sceneCloud(192, 31), sceneCloud(160, 32), sceneCloud(24, 33)};
    const struct
    {
        const char *name;
        PointNetPPConfig config;
    } models[] = {
        {"lite-seg", PointNetPPConfig::liteSegmentation(192, 5)},
        {"lite-cls", PointNetPPConfig::liteClassification(192, 4)},
    };
    const struct
    {
        const char *name;
        EdgePcConfig cfg;
    } variants[] = {
        {"baseline", EdgePcConfig::baseline()},
        {"sn", EdgePcConfig::sn()},
        {"snf", EdgePcConfig::snf()},
    };
    const nn::DelayedAggMode agg_modes[] = {
        nn::DelayedAggMode::Off,
        nn::DelayedAggMode::On,
        nn::DelayedAggMode::Auto,
    };
    const nn::GemmDispatchPath gemm_paths[] = {
        nn::GemmDispatchPath::ForceScalar,
        nn::GemmDispatchPath::Auto,
    };

    for (const auto &m : models) {
        PointNetPP model(m.config, 3);
        StagedPipeline staged(model);
        for (const auto &variant : variants) {
            for (const nn::DelayedAggMode agg : agg_modes) {
                for (const nn::GemmDispatchPath gemm : gemm_paths) {
                    nn::setDelayedAggMode(agg);
                    nn::GemmEngine::setDispatchPath(gemm);
                    const std::string tag =
                        std::string(m.name) + " / " + variant.name +
                        " / delayed_agg=" + nn::delayedAggModeName() +
                        " / gemm=" +
                        (gemm == nn::GemmDispatchPath::ForceScalar
                             ? "scalar"
                             : "auto");

                    // Drain the staged executor before driving the
                    // model from this thread.
                    for (const PointCloud &cloud : clouds) {
                        ASSERT_TRUE(staged.trySubmit(cloud, variant.cfg));
                    }
                    std::vector<StagedFrameResult> frames;
                    for (std::size_t b = 0; b < clouds.size(); ++b) {
                        frames.push_back(staged.collect());
                    }
                    const std::vector<nn::Matrix> batch =
                        model.inferBatch(clouds, variant.cfg);
                    ASSERT_EQ(batch.size(), clouds.size()) << tag;
                    for (std::size_t b = 0; b < clouds.size(); ++b) {
                        const std::string what =
                            tag + " / cloud " + std::to_string(b);
                        const nn::Matrix ref =
                            model.infer(clouds[b], variant.cfg);
                        ASSERT_FALSE(frames[b].failed) << what;
                        expectIdentical(frames[b].logits, ref,
                                        what + " / staged");
                        expectIdentical(
                            model.inferBatch({&clouds[b], 1}, variant.cfg)
                                .front(),
                            ref, what + " / inferBatch of one");
                        expectIdentical(batch[b], ref,
                                        what + " / inferBatch");
                        expectIdentical(model.forward(clouds[b],
                                                      variant.cfg, nullptr,
                                                      false),
                                        ref, what + " / forward");
                    }
                }
            }
        }
    }
}

TEST(Dgcnn, DelayedAggregationMatchesEagerClassification)
{
    QuantOffGuard guard;
    const PointCloud cloud = makeCloud(128, 23);
    DgcnnConfig eager_cfg = DgcnnConfig::liteClassification(8);
    eager_cfg.delayedAggregation = nn::DelayedAggMode::Off;
    DgcnnConfig delayed_cfg = DgcnnConfig::liteClassification(8);
    delayed_cfg.delayedAggregation = nn::DelayedAggMode::On;

    Dgcnn eager(eager_cfg, 7);
    Dgcnn delayed(delayed_cfg, 7);
    expectLogitsNear(eager.infer(cloud, EdgePcConfig::baseline()),
                     delayed.infer(cloud, EdgePcConfig::baseline()),
                     5e-3f);
}

TEST(Dgcnn, DelayedAggregationMatchesEagerSegmentation)
{
    QuantOffGuard guard;
    const PointCloud cloud = makeCloud(96, 24);
    DgcnnConfig eager_cfg = DgcnnConfig::liteSegmentation(5);
    eager_cfg.delayedAggregation = nn::DelayedAggMode::Off;
    DgcnnConfig delayed_cfg = DgcnnConfig::liteSegmentation(5);
    delayed_cfg.delayedAggregation = nn::DelayedAggMode::On;

    Dgcnn eager(eager_cfg, 7);
    Dgcnn delayed(delayed_cfg, 7);
    expectLogitsNear(eager.infer(cloud, EdgePcConfig::baseline()),
                     delayed.infer(cloud, EdgePcConfig::baseline()),
                     5e-3f);
}

/** Restores the global engine's policy and the dispatch path. */
class GemmAutoGuard
{
  public:
    explicit GemmAutoGuard(nn::GemmDispatchPath path)
        : mode(nn::GemmEngine::globalEngine().mode()),
          saved(nn::GemmEngine::dispatchPath())
    {
        // globalEngine() starts in Scalar; the row-concat check wants
        // the policy that sends wide K to the fast kernel.
        nn::GemmEngine::globalEngine().setMode(nn::GemmMode::Auto);
        nn::GemmEngine::setDispatchPath(path);
    }
    ~GemmAutoGuard()
    {
        nn::GemmEngine::globalEngine().setMode(mode);
        nn::GemmEngine::setDispatchPath(saved);
    }

  private:
    nn::GemmMode mode;
    nn::GemmDispatchPath saved;
};

void
expectIdenticalLogits(const nn::Matrix &got, const nn::Matrix &want)
{
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    for (std::size_t i = 0; i < got.numel(); ++i) {
        ASSERT_EQ(got.data()[i], want.data()[i]) << "element " << i;
    }
}

/**
 * A segmentation head's logits against its fp64 oracle, under both
 * dispatch paths and both model configurations. On the fp32 route the
 * head's first Linear folds the pooled row into its bias: its output
 * must lie within the forward-error bound of the fp64 product
 * (row_concat_oracle.hpp, DESIGN.md §19), and the logits must be the
 * rest of the head run on exactly that output. With every Linear
 * forced onto the int8 route, the first Linear quantizes the
 * materialized operand, so the logits equal the head run on it.
 */
template <class Model, class Inputs>
void
checkSegHead(Model &model, const PointCloud &cloud, const Inputs &inputs_of)
{
    const nn::QuantMode saved = nn::quantGemmMode();
    for (const nn::QuantMode quant :
         {nn::QuantMode::Off, nn::QuantMode::On}) {
        nn::setQuantGemmMode(quant);
        for (const nn::GemmDispatchPath path :
             {nn::GemmDispatchPath::ForceScalar, nn::GemmDispatchPath::Auto}) {
            const GemmAutoGuard gemm(path);
            for (const EdgePcConfig &cfg :
                 {EdgePcConfig::baseline(), EdgePcConfig::snf()}) {
                SCOPED_TRACE(testing::Message()
                             << "int8=" << (quant == nn::QuantMode::On)
                             << " path=" << static_cast<int>(path)
                             << " approximate=" << cfg.approximate());
                const nn::Matrix logits = model.infer(cloud, cfg);
                const ModelProbe::HeadInputs in = inputs_of();
                nn::Sequential &head = ModelProbe::head(model);
                if (quant == nn::QuantMode::On) {
                    expectIdenticalLogits(
                        logits,
                        head.forward(nn::concatCols(in.features,
                                                    nn::broadcastRow(
                                                        in.pooled,
                                                        cloud.size())),
                                     false));
                    continue;
                }
                auto *lin0 = static_cast<nn::Linear *>(head.layerAt(0));
                const nn::Matrix h =
                    lin0->forwardRowConcat(in.features, in.pooled);
                testing_oracle::expectWithinRowConcatBound(
                    h, in.features, in.pooled, lin0->weights().value,
                    lin0->biases().value);
                const std::size_t rows[] = {h.rows()};
                expectIdenticalLogits(logits,
                                      head.forwardSegmented(h, rows, 1));
            }
        }
    }
    nn::setQuantGemmMode(saved);
}

TEST(GemmRowConcat, DgcnnLiteSegLogitsMatchMaterializedHead)
{
    const PointCloud cloud = makeCloud(200, 31);
    Dgcnn model(DgcnnConfig::liteSegmentation(5), 7);
    checkSegHead(model, cloud, [&] { return ModelProbe::headInputs(model); });
}

TEST(GemmRowConcat, PointNetSegLogitsMatchMaterializedHead)
{
    const PointCloud cloud = makeCloud(200, 32);
    PointNet model(PointNetConfig::segmentationConfig(5), 7);
    checkSegHead(model, cloud,
                 [&] { return ModelProbe::headInputs(model, cloud); });
}

/**
 * DGCNN classification streams its embedding GEMM into the global
 * max-pool; the logits are bit-identical with the stored embedding
 * run through LeakyReLU and GlobalMaxPool, under both dispatch paths
 * and both model configurations (DESIGN.md §19).
 */
TEST(GemmColumnMax, DgcnnLiteClsLogitsMatchStoredEmbedding)
{
    QuantOffGuard quant;
    const PointCloud cloud = makeCloud(200, 33);
    Dgcnn model(DgcnnConfig::liteClassification(8), 7);
    for (const nn::GemmDispatchPath path :
         {nn::GemmDispatchPath::ForceScalar, nn::GemmDispatchPath::Auto}) {
        const GemmAutoGuard gemm(path);
        for (const EdgePcConfig &config :
             {EdgePcConfig::baseline(), EdgePcConfig::snf()}) {
            SCOPED_TRACE(testing::Message()
                         << "path=" << static_cast<int>(path)
                         << " approximate=" << config.approximate());
            const nn::Matrix logits = model.infer(cloud, config);
            expectIdenticalLogits(logits,
                                  ModelProbe::storedEmbeddingLogits(model));
        }
    }
}

TEST(Dgcnn, ClassificationForwardShapes)
{
    const PointCloud cloud = makeCloud(128, 8);
    Dgcnn model(DgcnnConfig::liteClassification(8), 7);
    EXPECT_TRUE(model.isClassifier());
    EXPECT_EQ(model.name(), "dgcnn(c)");

    const nn::Matrix logits =
        model.infer(cloud, EdgePcConfig::baseline());
    EXPECT_EQ(logits.rows(), 1u);
    EXPECT_EQ(logits.cols(), 8u);
    expectFinite(logits);
}

TEST(Dgcnn, SegmentationForwardShapes)
{
    const PointCloud cloud = makeCloud(128, 9);
    Dgcnn model(DgcnnConfig::liteSegmentation(5), 7);
    const nn::Matrix logits =
        model.infer(cloud, EdgePcConfig::baseline());
    EXPECT_EQ(logits.rows(), cloud.size());
    EXPECT_EQ(logits.cols(), 5u);
    expectFinite(logits);
}

TEST(Dgcnn, ApproximateAndReuseRun)
{
    const PointCloud cloud = makeCloud(256, 10);
    Dgcnn model(DgcnnConfig::liteClassification(8), 7);
    EdgePcConfig cfg = EdgePcConfig::sn();
    cfg.reuseDistance = 1;
    const nn::Matrix logits = model.infer(cloud, cfg);
    expectFinite(logits);
}

TEST(Dgcnn, NeighborStageCheaperWithApproximation)
{
    const PointCloud cloud = makeCloud(2048, 11);
    Dgcnn model(DgcnnConfig::liteClassification(8), 7);

    StageTimer base_t, sn_t;
    model.infer(cloud, EdgePcConfig::baseline(), &base_t);
    model.infer(cloud, EdgePcConfig::sn(), &sn_t);
    EXPECT_LT(sn_t.total(kStageNeighbor),
              base_t.total(kStageNeighbor));
}

TEST(Dgcnn, PaperScaleConfigsConstruct)
{
    Dgcnn cls(DgcnnConfig::classification(40), 7);
    Dgcnn part(DgcnnConfig::partSegmentation(50), 7);
    Dgcnn seg(DgcnnConfig::semanticSegmentation(13), 7);
    EXPECT_EQ(cls.name(), "dgcnn(c)");
    EXPECT_EQ(part.name(), "dgcnn(p)");
    EXPECT_EQ(seg.name(), "dgcnn(s)");
}

} // namespace
} // namespace edgepc
