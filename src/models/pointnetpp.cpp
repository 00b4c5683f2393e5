#include "models/pointnetpp.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "neighbor/ball_query.hpp"
#include "neighbor/brute_force.hpp"
#include "neighbor/morton_window.hpp"
#include "sampling/fps.hpp"

namespace edgepc {

namespace {

/** Accumulate @p g into @p acc, allocating @p acc on first use. */
void
accumulate(nn::Matrix &acc, const nn::Matrix &g)
{
    if (acc.numel() == 0 && acc.rows() == 0) {
        acc = g;
    } else {
        acc.add(g);
    }
}

} // namespace

PointNetPPConfig
PointNetPPConfig::semanticSegmentation(std::size_t num_points,
                                       std::size_t num_classes)
{
    auto at_least_one = [](std::size_t v) {
        return std::max<std::size_t>(1, v);
    };
    PointNetPPConfig cfg;
    cfg.numClasses = num_classes;
    cfg.sa = {
        {at_least_one(num_points / 8), 32, 0.1f, NeighborMode::BallQuery,
         {32, 32, 64}},
        {at_least_one(num_points / 32), 32, 0.2f, NeighborMode::BallQuery,
         {64, 64, 128}},
        {at_least_one(num_points / 128), 32, 0.4f,
         NeighborMode::BallQuery, {128, 128, 256}},
        {at_least_one(num_points / 512), 32, 0.8f,
         NeighborMode::BallQuery, {256, 256, 512}},
    };
    cfg.fp = {
        {{256, 256}},
        {{256, 256}},
        {{256, 128}},
        {{128, 128, 128}},
    };
    cfg.headMlp = {128};
    return cfg;
}

PointNetPPConfig
PointNetPPConfig::liteSegmentation(std::size_t num_points,
                                   std::size_t num_classes)
{
    auto at_least_one = [](std::size_t v) {
        return std::max<std::size_t>(1, v);
    };
    PointNetPPConfig cfg;
    cfg.numClasses = num_classes;
    cfg.sa = {
        {at_least_one(num_points / 4), 16, 0.2f, NeighborMode::BallQuery,
         {16, 32}},
        {at_least_one(num_points / 16), 8, 0.4f, NeighborMode::BallQuery,
         {32, 64}},
    };
    cfg.fp = {
        {{64}},
        {{64, 32}},
    };
    cfg.headMlp = {32};
    return cfg;
}

PointNetPPConfig
PointNetPPConfig::liteClassification(std::size_t num_points,
                                     std::size_t num_classes)
{
    auto at_least_one = [](std::size_t v) {
        return std::max<std::size_t>(1, v);
    };
    PointNetPPConfig cfg;
    cfg.numClasses = num_classes;
    cfg.sa = {
        {at_least_one(num_points / 4), 16, 0.25f,
         NeighborMode::BallQuery, {16, 32}},
        {at_least_one(num_points / 16), 8, 0.5f, NeighborMode::BallQuery,
         {32, 64}},
    };
    cfg.headMlp = {64};
    return cfg;
}

PointNetPP::PointNetPP(PointNetPPConfig config, std::uint64_t seed)
    : cfg(std::move(config))
{
    if (cfg.sa.empty()) {
        // NOLINTNEXTLINE(edgepc-R1): impossible configuration, not data
        fatal("PointNetPP: at least one SA module is required");
    }
    if (!cfg.fp.empty() && cfg.fp.size() != cfg.sa.size()) {
        // NOLINTNEXTLINE(edgepc-R1): impossible configuration, not data
        fatal("PointNetPP: fp modules (%zu) must match sa modules (%zu) "
              "or be empty",
              cfg.fp.size(), cfg.sa.size());
    }
    Rng rng(seed);

    // SA blocks: channel chain C_0 -> ... -> C_L.
    std::vector<std::size_t> level_dims;
    level_dims.push_back(cfg.inputFeatureDim);
    for (std::size_t si = 0; si < cfg.sa.size(); ++si) {
        const SaConfig &sa = cfg.sa[si];
        SaBlock block;
        std::size_t in_dim = 3 + level_dims.back();
        for (std::size_t wi = 0; wi < sa.mlp.size(); ++wi) {
            const std::size_t width = sa.mlp[wi];
            // Classifier: the deepest SA output feeds a global
            // max-pool; per-cloud batch norm right before it would
            // standardize away the cloud's identity, so the final
            // stage is Linear + ReLU only (see the matching note in
            // dgcnn.cpp). The pair fuses into one GEMM with a
            // BiasRelu epilogue; the parameter stream is identical
            // to a separate Linear + ReLU, so checkpoints interop.
            const bool last_stage_before_global_pool =
                cfg.fp.empty() && si + 1 == cfg.sa.size() &&
                wi + 1 == sa.mlp.size();
            if (last_stage_before_global_pool) {
                block.mlp.addLinearRelu(in_dim, width, rng);
            } else {
                block.mlp.addLinearBnRelu(in_dim, width, rng);
            }
            in_dim = width;
        }
        level_dims.push_back(in_dim);
        saBlocks.push_back(std::move(block));
    }

    // FP blocks (deepest first).
    std::size_t carried = level_dims.back();
    const std::size_t num_levels = level_dims.size();
    for (std::size_t m = 0; m < cfg.fp.size(); ++m) {
        FpBlock block;
        const std::size_t fine_level = num_levels - 2 - m;
        std::size_t in_dim = carried + level_dims[fine_level];
        for (const std::size_t width : cfg.fp[m].mlp) {
            block.mlp.addLinearBnRelu(in_dim, width, rng);
            in_dim = width;
        }
        carried = in_dim;
        fpBlocks.push_back(std::move(block));
    }

    // Head: hidden blocks plus a bare final Linear to the classes.
    std::size_t head_in = cfg.fp.empty() ? level_dims.back() : carried;
    for (const std::size_t width : cfg.headMlp) {
        head.addLinearBnRelu(head_in, width, rng);
        head_in = width;
    }
    head.add(std::make_unique<nn::Linear>(head_in, cfg.numClasses, rng));

    // Propagate the int8-inference config to every Linear layer; the
    // per-call resolve (env > config > shape heuristic) happens inside
    // the layers.
    for (auto &block : saBlocks) {
        block.mlp.setQuantMode(cfg.quantizedInference);
    }
    for (auto &block : fpBlocks) {
        block.mlp.setQuantMode(cfg.quantizedInference);
    }
    head.setQuantMode(cfg.quantizedInference);
}

void
PointNetPP::Frame::reset()
{
    StagedFrame::reset();
    levels.clear();
    neighbors.clear();
    plans.clear();
}

void
PointNetPP::sampleStage(Frame &frame, const PointCloud &cloud,
                        const EdgePcConfig &config, StageTimer *timer) const
{
    if (cloud.empty()) {
        raise(ErrorCode::EmptyCloud, "PointNetPP: empty cloud");
    }
    if (cloud.featureDim() != cfg.inputFeatureDim) {
        raise(ErrorCode::ShapeMismatch,
              "PointNetPP: cloud feature dim %zu != model %zu",
              cloud.featureDim(), cfg.inputFeatureDim);
    }
    const std::size_t num_levels = cfg.sa.size() + 1;
    frame.levels.assign(num_levels, LevelState{});
    frame.neighbors.assign(cfg.sa.size(), NeighborLists{});
    frame.plans.assign(cfg.fp.size(), InterpolationPlan{});
    frame.levels[0].positions = cloud.positions();
    frame.levels[0].saFeatures =
        nn::Matrix(cloud.size(), cfg.inputFeatureDim, cloud.features());

    StageTimer::ScopedStage scope(timer, kStageSample);
    // The whole sampling chain runs here: level i+1's positions are a
    // pure gather of level i's sample indices, so no neighbor or
    // feature result is ever needed to keep sampling.
    for (std::size_t i = 0; i < cfg.sa.size(); ++i) {
        LevelState &cur = frame.levels[i];
        const std::size_t n = std::min(cfg.sa[i].points, cur.positions.size());
        if (config.approximate() &&
            static_cast<int>(i) < config.optimizedSampleLayers) {
            const MortonSampler sampler(config.codeBits);
            cur.structur = sampler.structurize(cur.positions);
            cur.mortonSampled = true;
            cur.sampleIndices = sampler.sampleStructurized(cur.structur, n);
        } else {
            FarthestPointSampler sampler;
            cur.sampleIndices = sampler.sample(cur.positions, n);
        }
        LevelState &next = frame.levels[i + 1];
        next.positions.resize(cur.sampleIndices.size());
        for (std::size_t j = 0; j < cur.sampleIndices.size(); ++j) {
            next.positions[j] = cur.positions[cur.sampleIndices[j]];
        }
    }

    // FP up-sample plans read only positions and structurizations. A
    // level was Morton-sampled above exactly when the S+N config covers
    // it, which is also when its up-sampling reuses that structurization.
    for (std::size_t m = 0; m < cfg.fp.size(); ++m) {
        const std::size_t fine = num_levels - 2 - m;
        const LevelState &fine_level = frame.levels[fine];
        if (fine_level.mortonSampled) {
            const MortonUpsampler upsampler;
            frame.plans[m] = upsampler.plan(fine_level.positions,
                                            fine_level.structur,
                                            fine_level.sampleIndices);
        } else {
            frame.plans[m] = exactInterpolation(
                fine_level.positions, frame.levels[fine + 1].positions, 3);
        }
    }
}

void
PointNetPP::neighborStage(Frame &frame, const EdgePcConfig &config,
                          StageTimer *timer) const
{
    StageTimer::ScopedStage scope(timer, kStageNeighbor);
    for (std::size_t i = 0; i < cfg.sa.size(); ++i) {
        const SaConfig &conf = cfg.sa[i];
        LevelState &cur = frame.levels[i];
        if (config.approximate() &&
            static_cast<int>(i) < config.optimizedNeighborLayers) {
            if (!cur.mortonSampled) {
                // No structurization to reuse from the sampler: build
                // one here (its cost counts against this stage).
                const MortonSampler sampler(config.codeBits);
                cur.structur = sampler.structurize(cur.positions);
                cur.mortonSampled = true;
            }
            const MortonWindowSearch searcher(config.searchWindow);
            frame.neighbors[i] = searcher.search(
                cur.positions, cur.structur, cur.sampleIndices, conf.k);
            continue;
        }
        // The queries are the sampled points: the next level's positions.
        const std::vector<Vec3> &queries = frame.levels[i + 1].positions;
        if (conf.mode == NeighborMode::BallQuery) {
            BallQuery searcher(conf.radius, cfg.fixedPointSearch);
            frame.neighbors[i] = searcher.search(queries, cur.positions,
                                                 conf.k);
        } else {
            BruteForceKnn searcher(cfg.fixedPointSearch);
            frame.neighbors[i] = searcher.search(queries, cur.positions,
                                                 conf.k);
        }
    }
}

std::vector<nn::Matrix>
PointNetPP::featureStage(std::span<Frame> frames, StageTimer *timer)
{
    const std::size_t batch = frames.size();
    std::vector<nn::Matrix> logits(batch);
    if (batch == 0) {
        return logits;
    }
    const std::size_t num_levels = cfg.sa.size() + 1;
    std::vector<std::size_t> seg_rows(batch);

    for (std::size_t i = 0; i < saBlocks.size(); ++i) {
        SaBlock &block = saBlocks[i];
        nn::Layer *layer0 =
            block.mlp.size() == 0 ? nullptr : block.mlp.layerAt(0);
        auto *lin0 = dynamic_cast<nn::Linear *>(layer0);
        auto *linrelu0 = dynamic_cast<nn::LinearRelu *>(layer0);
        std::size_t total_rows = 0;
        // Delayed aggregation (DESIGN.md §13) is decided per cloud, so
        // a cloud's logits do not depend on the batch it rides in.
        std::vector<char> delayed(batch, 0);
        bool any_delayed = false;
        for (std::size_t b = 0; b < batch; ++b) {
            const LevelState &cur = frames[b].levels[i];
            const std::size_t k_eff = frames[b].neighbors[i].k;
            seg_rows[b] = cur.sampleIndices.size() * k_eff;
            total_rows += seg_rows[b];
            const double flop_ratio = nn::saDelayedFlopRatio(
                cur.positions.size(), cur.sampleIndices.size(), k_eff,
                cur.saFeatures.cols());
            delayed[b] =
                nn::resolveDelayedAgg(cfg.delayedAggregation, flop_ratio) &&
                (lin0 != nullptr || linrelu0 != nullptr);
            any_delayed = any_delayed || delayed[b];
        }
        if (any_delayed && linrelu0 != nullptr) {
            // Tier A: a single-stage BN-free block (the classifier's
            // deepest) delays fully and never materializes a stacked
            // matrix, so there is nothing to batch — run per cloud.
            StageTimer::ScopedStage scope(timer, kStageFeature);
            for (std::size_t b = 0; b < batch; ++b) {
                const LevelState &cur = frames[b].levels[i];
                const NeighborLists &neighbors = frames[b].neighbors[i];
                nn::Matrix &out = frames[b].levels[i + 1].saFeatures;
                if (delayed[b]) {
                    out = nn::delayedSaSingleStageInfer(
                        cur.positions, cur.saFeatures, cur.sampleIndices,
                        neighbors, linrelu0->weights().value,
                        linrelu0->biases().value,
                        nn::GemmEngine::globalEngine());
                    continue;
                }
                const std::size_t k[] = {neighbors.k};
                out = std::move(
                    block.mlp
                        .forwardPooled(nn::groupWithRelativeCoords(
                                           cur.positions, cur.saFeatures,
                                           cur.sampleIndices, neighbors),
                                       {&seg_rows[b], 1}, k)
                        .front());
            }
        } else {
            // Stack every cloud's rows into its row range of one matrix,
            // so the stacking costs no extra pass.
            nn::Matrix stacked;
            std::size_t first_layer = 0;
            if (any_delayed) {
                // Tier B: the rows are each cloud's first-Linear output
                // (delayed clouds via the unique-row GEMMs, eager ones
                // via grouped rows — the packed GEMM is row-independent,
                // so each row is bit-exact with the cloud alone), and
                // the BN+ReLU tail runs segmented from layer 1.
                StageTimer::ScopedStage scope(timer, kStageFeature);
                std::vector<nn::Matrix> pre(batch);
                for (std::size_t b = 0; b < batch; ++b) {
                    const LevelState &cur = frames[b].levels[i];
                    const NeighborLists &neighbors = frames[b].neighbors[i];
                    if (delayed[b]) {
                        pre[b] = nn::delayedSaFirstLinear(
                            cur.positions, cur.saFeatures,
                            cur.sampleIndices, neighbors,
                            lin0->weights().value, lin0->biases().value,
                            nn::GemmEngine::globalEngine(), nullptr);
                    } else {
                        pre[b] = lin0->forward(
                            nn::groupWithRelativeCoords(
                                cur.positions, cur.saFeatures,
                                cur.sampleIndices, neighbors),
                            false);
                    }
                }
                // A batch of one has nothing to stack: skip the copy.
                stacked = batch == 1 ? std::move(pre[0]) : nn::concatRows(pre);
                first_layer = 1;
            } else {
                // Eager: the rows are the grouped neighborhoods.
                StageTimer::ScopedStage scope(timer, kStageGroup);
                stacked = nn::Matrix(
                    total_rows, 3 + frames[0].levels[i].saFeatures.cols(),
                    nn::kUninitialized);
                std::size_t offset = 0;
                for (std::size_t b = 0; b < batch; ++b) {
                    const LevelState &cur = frames[b].levels[i];
                    nn::groupWithRelativeCoordsInto(
                        cur.positions, cur.saFeatures, cur.sampleIndices,
                        frames[b].neighbors[i],
                        std::span<float>(stacked.data() +
                                             offset * stacked.cols(),
                                         seg_rows[b] * stacked.cols()));
                    offset += seg_rows[b];
                }
            }
            // The batched payoff: one tall GEMM per MLP stage instead
            // of `batch` skinny ones, the tail runs in place on the
            // stack, and each cloud's max-pool reads its row range
            // before the last BatchNorm + ReLU (DESIGN.md §17).
            StageTimer::ScopedStage scope(timer, kStageFeature);
            std::vector<std::size_t> group_k(batch);
            for (std::size_t b = 0; b < batch; ++b) {
                group_k[b] = frames[b].neighbors[i].k;
            }
            std::vector<nn::Matrix> pooled = block.mlp.forwardPooled(
                std::move(stacked), seg_rows, group_k, first_layer);
            for (std::size_t b = 0; b < batch; ++b) {
                frames[b].levels[i + 1].saFeatures = std::move(pooled[b]);
            }
        }
        if (isClassifier()) {
            // No skip connections ahead: free the consumed level now —
            // with several frames in flight, peak footprint matters.
            for (Frame &frame : frames) {
                frame.levels[i].saFeatures = nn::Matrix{};
            }
        }
    }

    if (isClassifier()) {
        StageTimer::ScopedStage scope(timer, kStageFeature);
        std::vector<nn::Matrix> pooled(batch);
        for (std::size_t b = 0; b < batch; ++b) {
            nn::GlobalMaxPool pool;
            pooled[b] = pool.forward(frames[b].levels.back().saFeatures,
                                     false);
            seg_rows[b] = 1;
        }
        const nn::Matrix out =
            head.forwardSegmented(nn::concatRows(pooled), seg_rows);
        for (std::size_t b = 0; b < batch; ++b) {
            logits[b] = nn::sliceRows(out, b, b + 1);
        }
        return logits;
    }

    std::vector<std::vector<nn::Matrix>> fp_feat(
        batch, std::vector<nn::Matrix>(num_levels));
    for (std::size_t b = 0; b < batch; ++b) {
        fp_feat[b].back() = std::move(frames[b].levels.back().saFeatures);
    }
    // The finest FP module's output feeds the head still stacked.
    nn::Matrix stacked;
    for (std::size_t m = 0; m < fpBlocks.size(); ++m) {
        const std::size_t coarse = num_levels - 1 - m;
        const std::size_t fine = coarse - 1;
        std::size_t total_rows = 0;
        for (std::size_t b = 0; b < batch; ++b) {
            seg_rows[b] = frames[b].plans[m].targets();
            total_rows += seg_rows[b];
        }
        const std::size_t up_cols = fp_feat[0][coarse].cols();
        const std::size_t sa_cols = frames[0].levels[fine].saFeatures.cols();
        // Up-sample into the left columns and the skip features into
        // the right columns of the stacked batch directly.
        stacked = nn::Matrix(total_rows, up_cols + sa_cols,
                             nn::kUninitialized);
        {
            StageTimer::ScopedStage scope(timer, kStageGroup);
            std::size_t offset = 0;
            for (std::size_t b = 0; b < batch; ++b) {
                float *base = stacked.data() + offset * stacked.cols();
                nn::applyInterpolationInto(
                    frames[b].plans[m], fp_feat[b][coarse],
                    std::span<float>(base, seg_rows[b] * stacked.cols()),
                    stacked.cols());
                if (sa_cols > 0) {
                    const nn::Matrix &skip = frames[b].levels[fine].saFeatures;
                    for (std::size_t r = 0; r < seg_rows[b]; ++r) {
                        const float *src = skip.data() + r * sa_cols;
                        std::copy(src, src + sa_cols,
                                  base + r * stacked.cols() + up_cols);
                    }
                }
                offset += seg_rows[b];
            }
        }
        StageTimer::ScopedStage scope(timer, kStageFeature);
        stacked = fpBlocks[m].mlp.forwardSegmented(std::move(stacked),
                                                   seg_rows);
        if (fine == 0) {
            break;
        }
        std::size_t offset = 0;
        for (std::size_t b = 0; b < batch; ++b) {
            fp_feat[b][fine] =
                nn::sliceRows(stacked, offset, offset + seg_rows[b]);
            offset += seg_rows[b];
        }
    }

    StageTimer::ScopedStage scope(timer, kStageFeature);
    const nn::Matrix out = head.forwardSegmented(std::move(stacked), seg_rows);
    std::size_t offset = 0;
    for (std::size_t b = 0; b < batch; ++b) {
        logits[b] = nn::sliceRows(out, offset, offset + seg_rows[b]);
        offset += seg_rows[b];
    }
    return logits;
}

nn::Matrix
PointNetPP::infer(const PointCloud &cloud, const EdgePcConfig &config,
                  StageTimer *timer)
{
    return std::move(inferBatch({&cloud, 1}, config, timer).front());
}

std::vector<nn::Matrix>
PointNetPP::inferBatch(std::span<const PointCloud> clouds,
                       const EdgePcConfig &config, StageTimer *timer)
{
    std::vector<Frame> frames(clouds.size());
    for (std::size_t b = 0; b < clouds.size(); ++b) {
        sampleStage(frames[b], clouds[b], config, timer);
    }
    for (Frame &frame : frames) {
        neighborStage(frame, config, timer);
    }
    return featureStage(frames, timer);
}

std::unique_ptr<StagedFrame>
PointNetPP::makeStagedFrame()
{
    return std::make_unique<Frame>();
}

void
PointNetPP::stagedSample(StagedFrame &frame, const PointCloud &cloud,
                         const EdgePcConfig &config, StageTimer *timer)
{
    sampleStage(static_cast<Frame &>(frame), cloud, config, timer);
}

void
PointNetPP::stagedNeighbor(StagedFrame &frame, const EdgePcConfig &config,
                           StageTimer *timer)
{
    neighborStage(static_cast<Frame &>(frame), config, timer);
}

nn::Matrix
PointNetPP::stagedFeature(StagedFrame &frame, const EdgePcConfig &config,
                          StageTimer *timer)
{
    (void)config;
    return std::move(
        featureStage({&static_cast<Frame &>(frame), 1}, timer).front());
}

void
PointNetPP::runSaModule(std::size_t module, StageTimer *timer)
{
    SaBlock &block = saBlocks[module];
    const LevelState &cur = trainFrame.levels[module];
    LevelState &next = trainFrame.levels[module + 1];
    const NeighborLists &neighbors = trainFrame.neighbors[module];

    // The searchers clamp k when the candidate set is smaller than
    // the configured neighbor count; everything downstream must use
    // the effective k.
    const std::size_t k_eff = neighbors.k;
    const std::size_t feat_dim = cur.saFeatures.cols();
    block.pool = std::make_unique<nn::MaxPoolNeighbors>(k_eff);

    // Delayed aggregation (DESIGN.md §13): run the first Linear over
    // the level's unique rows before the gather. A single-stage
    // LinearRelu block (the classifier's deepest) has no eager-tail
    // state to cache, so training runs it eagerly.
    auto *lin0 = block.mlp.size() == 0
                     ? nullptr
                     : dynamic_cast<nn::Linear *>(block.mlp.layerAt(0));
    const double flop_ratio = nn::saDelayedFlopRatio(
        cur.positions.size(), cur.sampleIndices.size(), k_eff, feat_dim);
    block.delayedActive =
        nn::resolveDelayedAgg(cfg.delayedAggregation, flop_ratio) &&
        lin0 != nullptr;

    if (block.delayedActive) {
        // The gather no longer feeds a GEMM, so the whole block counts
        // as feature compute; the grouping stage is what this route
        // deletes.
        StageTimer::ScopedStage scope(timer, kStageFeature);
        const nn::Matrix pre = nn::delayedSaFirstLinear(
            cur.positions, cur.saFeatures, cur.sampleIndices, neighbors,
            lin0->weights().value, lin0->biases().value,
            nn::GemmEngine::globalEngine(), &block.delayedCache);
        next.saFeatures =
            block.pool->forward(block.mlp.forwardFrom(1, pre, true), true);
        return;
    }

    nn::Matrix grouped;
    {
        StageTimer::ScopedStage scope(timer, kStageGroup);
        // Relative coordinates (constant w.r.t. learnable activations).
        const std::size_t rows = cur.sampleIndices.size() * k_eff;
        nn::Matrix rel(rows, 3);
        parallelFor(0, cur.sampleIndices.size(), [&](std::size_t i) {
            const Vec3 center = cur.positions[cur.sampleIndices[i]];
            const auto row = neighbors.row(i);
            for (std::size_t j = 0; j < k_eff; ++j) {
                float *dst = rel.data() + (i * k_eff + j) * 3;
                const Vec3 d = cur.positions[row[j]] - center;
                dst[0] = d.x;
                dst[1] = d.y;
                dst[2] = d.z;
            }
        });

        if (feat_dim > 0) {
            block.gather.setIndices(neighbors.indices);
            const nn::Matrix gathered =
                block.gather.forward(cur.saFeatures, true);
            grouped = nn::concatCols(rel, gathered);
        } else {
            grouped = std::move(rel);
        }
    }

    StageTimer::ScopedStage scope(timer, kStageFeature);
    next.saFeatures =
        block.pool->forward(block.mlp.forward(grouped, true), true);
}

void
PointNetPP::runFpModule(std::size_t module, StageTimer *timer)
{
    FpBlock &block = fpBlocks[module];
    const std::size_t coarse = trainFrame.levels.size() - 1 - module;
    const std::size_t fine = coarse - 1;
    const nn::Matrix &skip = trainFrame.levels[fine].saFeatures;

    // --- Interpolation apply + skip concat (grouping stage) --------
    nn::Matrix concat;
    {
        StageTimer::ScopedStage scope(timer, kStageGroup);
        block.interp.setPlan(std::move(trainFrame.plans[module]));
        const nn::Matrix up = block.interp.forward(fpFeatures[coarse], true);
        concat = skip.cols() > 0 ? nn::concatCols(up, skip) : up;
    }

    StageTimer::ScopedStage scope(timer, kStageFeature);
    fpFeatures[fine] = block.mlp.forward(concat, true);
}

nn::Matrix
PointNetPP::forward(const PointCloud &cloud, const EdgePcConfig &config,
                    StageTimer *timer, bool train)
{
    trainMode = train;
    if (!train) {
        return infer(cloud, config, timer);
    }
    sampleStage(trainFrame, cloud, config, timer);
    neighborStage(trainFrame, config, timer);
    for (std::size_t i = 0; i < saBlocks.size(); ++i) {
        runSaModule(i, timer);
    }
    const nn::Matrix &deepest = trainFrame.levels.back().saFeatures;

    if (isClassifier()) {
        StageTimer::ScopedStage scope(timer, kStageFeature);
        return head.forward(globalPool.forward(deepest, true), true);
    }

    fpFeatures.assign(trainFrame.levels.size(), nn::Matrix{});
    fpFeatures.back() = deepest;
    for (std::size_t m = 0; m < fpBlocks.size(); ++m) {
        runFpModule(m, timer);
    }

    StageTimer::ScopedStage scope(timer, kStageFeature);
    return head.forward(fpFeatures[0], true);
}

void
PointNetPP::backward(const nn::Matrix &grad_logits)
{
    if (!trainMode) {
        // NOLINTNEXTLINE(edgepc-R1): caller protocol violation, not data
        panic("PointNetPP::backward without forward(train=true)");
    }
    const std::vector<LevelState> &levels = trainFrame.levels;
    const std::size_t num_levels = levels.size();

    // Gradients w.r.t. each level's SA-output features.
    std::vector<nn::Matrix> grad_sa(num_levels);

    nn::Matrix g = head.backward(grad_logits);

    if (isClassifier()) {
        accumulate(grad_sa[num_levels - 1], globalPool.backward(g));
    } else {
        // FP backward: module m maps fine = L-1-m; iterate so dG[fine]
        // is available (shallowest module first).
        std::vector<nn::Matrix> grad_fp(num_levels);
        grad_fp[0] = std::move(g);
        for (std::size_t idx = 0; idx < fpBlocks.size(); ++idx) {
            const std::size_t m = fpBlocks.size() - 1 - idx;
            const std::size_t coarse = num_levels - 1 - m;
            const std::size_t fine = coarse - 1;
            FpBlock &block = fpBlocks[m];

            nn::Matrix grad_concat =
                block.mlp.backward(grad_fp[fine]);
            const std::size_t up_cols =
                grad_concat.cols() - levels[fine].saFeatures.cols();
            auto [up_grad, skip_grad] =
                nn::splitCols(grad_concat, up_cols);

            const nn::Matrix coarse_grad =
                block.interp.backward(up_grad);
            if (coarse == num_levels - 1) {
                accumulate(grad_sa[coarse], coarse_grad);
            } else {
                accumulate(grad_fp[coarse], coarse_grad);
            }
            if (skip_grad.cols() > 0) {
                accumulate(grad_sa[fine], skip_grad);
            }
        }
    }

    // SA backward, deepest first.
    for (std::size_t i = saBlocks.size(); i-- > 0;) {
        SaBlock &block = saBlocks[i];
        nn::Matrix pooled_grad = std::move(grad_sa[i + 1]);
        if (pooled_grad.numel() == 0 && pooled_grad.rows() == 0) {
            // No gradient reached this level (possible in ablations).
            continue;
        }
        nn::Matrix act_grad = block.pool->backward(pooled_grad);
        if (block.delayedActive) {
            // Delayed route: the tail stops at layer 1 and the first
            // Linear's gradients come from the scatter/segment-sum
            // formulation. Training never delays a LinearRelu-first
            // block, so layer 0 is a plain Linear here.
            nn::Matrix pre_grad = block.mlp.backwardFrom(1, act_grad);
            auto *lin0 =
                static_cast<nn::Linear *>(block.mlp.layerAt(0));
            nn::Matrix feat_grad = nn::delayedSaFirstLinearBackward(
                block.delayedCache, pre_grad, lin0->weights(),
                lin0->biases(), nn::GemmEngine::globalEngine());
            if (levels[i].saFeatures.cols() > 0) {
                accumulate(grad_sa[i], feat_grad);
            }
            continue;
        }
        nn::Matrix grouped_grad = block.mlp.backward(act_grad);
        if (levels[i].saFeatures.cols() > 0) {
            auto [rel_grad, feat_grad] = nn::splitCols(grouped_grad, 3);
            (void)rel_grad; // Coordinates carry no learnable gradient.
            accumulate(grad_sa[i], block.gather.backward(feat_grad));
        }
    }
}

void
PointNetPP::collectParameters(std::vector<nn::Parameter *> &out)
{
    for (auto &block : saBlocks) {
        block.mlp.collectParameters(out);
    }
    for (auto &block : fpBlocks) {
        block.mlp.collectParameters(out);
    }
    head.collectParameters(out);
}

void
PointNetPP::collectBuffers(std::vector<std::vector<float> *> &out)
{
    for (auto &block : saBlocks) {
        block.mlp.collectBuffers(out);
    }
    for (auto &block : fpBlocks) {
        block.mlp.collectBuffers(out);
    }
    head.collectBuffers(out);
}

} // namespace edgepc
