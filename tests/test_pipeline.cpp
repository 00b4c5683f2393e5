/** @file Integration tests for the InferencePipeline. */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/workloads.hpp"
#include "datasets/scenes.hpp"
#include "models/pointnetpp.hpp"
#include "nn/gemm.hpp"
#include "obs/trace.hpp"

namespace edgepc {
namespace {

PointCloud
sceneCloud(std::size_t points, std::uint64_t seed)
{
    Rng rng(seed);
    SceneOptions options;
    options.points = points;
    return makeScene(options, rng);
}

TEST(Pipeline, ProducesConsistentResult)
{
    PointNetPP model(PointNetPPConfig::liteSegmentation(512, 5), 7);
    InferencePipeline pipeline(model, EdgePcConfig::baseline());
    const PointCloud cloud = sceneCloud(512, 1);
    const PipelineResult result = pipeline.run(cloud);

    EXPECT_EQ(result.logits.rows(), cloud.size());
    EXPECT_GT(result.endToEndMs, 0.0);
    EXPECT_GT(result.sampleNeighborMs, 0.0);
    EXPECT_LT(result.sampleNeighborMs, result.endToEndMs);
    EXPECT_GT(result.energyMj, 0.0);
}

TEST(Pipeline, SnVariantSpeedsUpSampleNeighbor)
{
    PointNetPP model(PointNetPPConfig::liteSegmentation(4096, 5), 7);
    InferencePipeline base(model, EdgePcConfig::baseline());
    InferencePipeline sn(model, EdgePcConfig::sn());
    const PointCloud cloud = sceneCloud(4096, 2);

    const PipelineResult rb = base.run(cloud);
    const PipelineResult rs = sn.run(cloud);
    EXPECT_LT(rs.sampleNeighborMs, rb.sampleNeighborMs);
    EXPECT_LT(rs.energyMj, rb.energyMj);
}

/** Stage spans recorded per stage name while @p body runs. */
template <class Body>
std::map<std::string, std::size_t>
stageSpanCounts(const Body &body)
{
    obs::Tracer &tracer = obs::Tracer::global();
    tracer.clear();
    tracer.setEnabled(true);
    body();
    tracer.setEnabled(false);
    std::map<std::string, std::size_t> counts;
    for (const obs::SpanEvent &span : tracer.snapshot()) {
        if (span.category == "stage") {
            ++counts[span.name];
        }
    }
    tracer.clear();
    return counts;
}

/**
 * A batch's result accumulates over its frames: its busy time is its
 * stage totals' sum, every stage a single frame runs shows up, and the
 * batch runs exactly the stage scopes of its frames run one by one.
 */
TEST(Pipeline, BatchAccumulatesTotals)
{
    PointNetPP model(PointNetPPConfig::liteSegmentation(256, 5), 7);
    InferencePipeline pipeline(model, EdgePcConfig::baseline());
    const std::vector<PointCloud> clouds = {sceneCloud(256, 3),
                                            sceneCloud(256, 4)};
    std::map<std::string, std::size_t> singles;
    std::vector<std::string> stages;
    for (const PointCloud &cloud : clouds) {
        PipelineResult one;
        const auto counts = stageSpanCounts([&] { one = pipeline.run(cloud); });
        for (const auto &[name, count] : counts) {
            singles[name] += count;
        }
        for (const auto &entry : one.stages.entries()) {
            stages.push_back(entry.first);
        }
    }
    PipelineResult both;
    const auto batch =
        stageSpanCounts([&] { both = pipeline.runBatch(clouds); });

    EXPECT_EQ(both.busyMs, both.stages.grandTotal());
    ASSERT_FALSE(stages.empty());
    for (const std::string &stage : stages) {
        EXPECT_GT(both.stages.total(stage), 0.0) << stage;
    }
#if EDGEPC_TRACING
    EXPECT_FALSE(singles.empty());
    EXPECT_EQ(batch, singles);
#endif
}

TEST(Pipeline, TensorCoreVariantSetsGemmMode)
{
    PointNetPP model(PointNetPPConfig::liteSegmentation(256, 5), 7);
    InferencePipeline snf(model, EdgePcConfig::snf());
    snf.run(sceneCloud(256, 5));
    EXPECT_EQ(nn::GemmEngine::globalEngine().mode(),
              nn::GemmMode::Auto);

    InferencePipeline base(model, EdgePcConfig::baseline());
    base.run(sceneCloud(256, 6));
    EXPECT_EQ(nn::GemmEngine::globalEngine().mode(),
              nn::GemmMode::Scalar);
}

TEST(Pipeline, ConfigSwappable)
{
    PointNetPP model(PointNetPPConfig::liteSegmentation(256, 5), 7);
    InferencePipeline pipeline(model, EdgePcConfig::baseline());
    EXPECT_EQ(pipeline.config().variant, PipelineVariant::Baseline);
    pipeline.setConfig(EdgePcConfig::sn());
    EXPECT_EQ(pipeline.config().variant, PipelineVariant::SN);
    EXPECT_TRUE(pipeline.config().approximate());
}

TEST(Pipeline, VariantNames)
{
    EXPECT_EQ(variantName(PipelineVariant::Baseline), "baseline");
    EXPECT_EQ(variantName(PipelineVariant::SN), "S+N");
    EXPECT_EQ(variantName(PipelineVariant::SNF), "S+N+F");
}

} // namespace
} // namespace edgepc
