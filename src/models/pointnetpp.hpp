/**
 * @file
 * PointNet++ (Qi et al., NeurIPS 2017) with the EdgePC approximations
 * integrated (Fig 2a of the EdgePC paper).
 *
 * The semantic-segmentation variant stacks SetAbstraction (SA) modules
 * — sample, neighbor search, group, shared MLP, max-pool — followed by
 * FeaturePropagation (FP) modules — interpolate/up-sample, concat skip
 * features, shared MLP — and a per-point head. A classification
 * variant (empty FP list) global-pools the deepest features instead.
 *
 * Every stage honors the EdgePcConfig: baseline runs FPS + ball query
 * + exact 3-NN interpolation; S+N swaps the configured leading layers
 * for the Morton sampler / window searcher / stride up-sampler,
 * reusing one structurization across the sample and neighbor-search
 * stages of the same module (Sec 5.2.3).
 *
 * Full manual backprop is implemented so the network can be retrained
 * with the approximations in the training loop (Sec 5.3).
 */

#ifndef EDGEPC_MODELS_POINTNETPP_HPP
#define EDGEPC_MODELS_POINTNETPP_HPP

#include <memory>

#include "geometry/simd_distance.hpp"
#include "models/model.hpp"
#include "neighbor/neighbor_search.hpp"
#include "nn/delayed_agg.hpp"
#include "nn/grouping.hpp"
#include "nn/layers.hpp"
#include "sampling/interpolation.hpp"
#include "sampling/morton_sampler.hpp"

namespace edgepc {

/** How an SA module searches neighbors in the baseline. */
enum class NeighborMode
{
    BallQuery,
    Knn,
};

/** One SetAbstraction module's hyper-parameters. */
struct SaConfig
{
    /** Points sampled by this module (n). */
    std::size_t points;
    /** Neighbors per sampled point (k). */
    std::size_t k;
    /** Ball-query radius (ignored in Knn mode). */
    float radius;
    /** Baseline neighbor searcher. */
    NeighborMode mode = NeighborMode::BallQuery;
    /** Shared-MLP channel widths. */
    std::vector<std::size_t> mlp;
};

/** One FeaturePropagation module's hyper-parameters. */
struct FpConfig
{
    /** Shared-MLP channel widths. */
    std::vector<std::size_t> mlp;
};

/** Whole-network hyper-parameters. */
struct PointNetPPConfig
{
    /** Extra per-point input features beyond xyz (0 = coords only). */
    std::size_t inputFeatureDim = 0;

    /** Output classes. */
    std::size_t numClasses = 0;

    /** SA modules, shallowest first. */
    std::vector<SaConfig> sa;

    /**
     * FP modules, deepest first (fp[0] propagates from the deepest
     * level). Must match sa.size() for segmentation; empty makes the
     * network a classifier (global pool + head).
     */
    std::vector<FpConfig> fp;

    /** Hidden widths of the final head (classes appended internally). */
    std::vector<std::size_t> headMlp;

    /**
     * Delayed aggregation (DESIGN.md §13): run each SA block's first
     * Linear over the level's unique points before the neighborhood
     * gather. Auto delays a block iff its first-layer FLOP ratio
     * reaches nn::kDelayedAggFlopRatio; EDGEPC_DELAYED_AGG overrides.
     * Checkpoint-compatible either way (same parameters, either route).
     */
    nn::DelayedAggMode delayedAggregation = nn::DelayedAggMode::Auto;

    /**
     * Int8 quantized inference (DESIGN.md §15): route the model's
     * Linear layers through the quantized GEMM at inference. Off by
     * default so default numerics match fp32 exactly; EDGEPC_GEMM=int8
     * overrides, and Auto defers to the per-call shape heuristic.
     * Training always runs fp32; checkpoints are unchanged.
     */
    nn::QuantMode quantizedInference = nn::QuantMode::Off;

    /**
     * Fixed-point neighbor search (DESIGN.md §15): snap coordinates to
     * the per-cloud s16 grid in the baseline ball-query / k-NN stages.
     * Off by default (exact fp32 distances); Auto engages ball query
     * only when the grid step is much finer than the radius (k-NN
     * stays fp32 under Auto). EDGEPC_SIMD=int8 overrides.
     */
    simd::FixedPointMode fixedPointSearch = simd::FixedPointMode::Off;

    /**
     * The paper's PointNet++(s) for semantic segmentation: 4 SA + 4 FP
     * with the reference SSG widths, module point counts scaled from
     * @p num_points (N/8, N/32, N/128, N/512).
     */
    static PointNetPPConfig semanticSegmentation(std::size_t num_points,
                                                 std::size_t num_classes);

    /** Small trainable segmentation variant (2 SA + 2 FP). */
    static PointNetPPConfig liteSegmentation(std::size_t num_points,
                                             std::size_t num_classes);

    /** Small trainable classification variant (2 SA, global pool). */
    static PointNetPPConfig liteClassification(std::size_t num_points,
                                               std::size_t num_classes);
};

/**
 * PointNet++ with selectable baseline / EdgePC kernels.
 *
 * Inference has one route (DESIGN.md §14), built from three stages over
 * a per-cloud Frame:
 *  - sample: input checks, then the whole sampling chain and the FP
 *    up-sample plans (every SA level's sample set depends only on
 *    positions, which derive from the previous level's samples);
 *  - neighbor: every SA module's neighbor search;
 *  - feature: group + shared MLP + pool + FP + head over a span of
 *    frames, row-stacked so each GEMM runs once at tall M. BatchNorm
 *    keeps per-cloud statistics and the delayed-aggregation route is
 *    chosen per cloud, so (with int8 off) a cloud's logits are
 *    bit-identical whatever batch it rides in.
 * infer() is the route on a batch of one, inferBatch() on the whole
 * batch, and the staged* hooks run one stage each for the staged
 * executor. The route keeps all per-cloud state in its frames and
 * never writes the training state (trainFrame, fpFeatures, layer
 * caches), so frames in different stages share nothing.
 * forward(train=true) is the only other path; it reuses the sample
 * and neighbor stages and keeps the caches backward() needs.
 */
class PointNetPP : public TrainableModel
{
  public:
    /**
     * @param config Network hyper-parameters.
     * @param seed Weight-initialization seed.
     */
    PointNetPP(PointNetPPConfig config, std::uint64_t seed = 42);

    nn::Matrix infer(const PointCloud &cloud, const EdgePcConfig &cfg,
                     StageTimer *timer = nullptr) override;

    std::vector<nn::Matrix> inferBatch(std::span<const PointCloud> clouds,
                                       const EdgePcConfig &cfg,
                                       StageTimer *timer = nullptr) override;

    bool supportsStagedInfer() const override { return true; }
    std::unique_ptr<StagedFrame> makeStagedFrame() override;
    void stagedSample(StagedFrame &frame, const PointCloud &cloud,
                      const EdgePcConfig &config,
                      StageTimer *timer) override;
    void stagedNeighbor(StagedFrame &frame, const EdgePcConfig &config,
                        StageTimer *timer) override;
    nn::Matrix stagedFeature(StagedFrame &frame,
                             const EdgePcConfig &config,
                             StageTimer *timer) override;

    /**
     * Forward pass keeping intermediates when @p train is true;
     * forward(train=false) is infer(). Returns per-point logits
     * (N x classes) for segmentation or a single-row logit matrix for
     * classification.
     */
    nn::Matrix forward(const PointCloud &cloud, const EdgePcConfig &cfg,
                       StageTimer *timer, bool train);

    /**
     * Backward pass from dLoss/dLogits; accumulates parameter
     * gradients. Must follow a forward(..., train=true).
     */
    void backward(const nn::Matrix &grad_logits);

    std::string name() const override { return "pointnet++"; }
    std::size_t numClasses() const override { return cfg.numClasses; }
    void collectParameters(std::vector<nn::Parameter *> &out) override;
    void collectBuffers(std::vector<std::vector<float> *> &out) override;

    const PointNetPPConfig &config() const { return cfg; }

    /** True when the network is a classifier (no FP modules). */
    bool isClassifier() const { return cfg.fp.empty(); }

  private:
    struct SaBlock
    {
        nn::Sequential mlp;
        nn::GroupingLayer gather;
        std::unique_ptr<nn::MaxPoolNeighbors> pool;
        /** Route taken by the last training forward (backward follows
            the same route over the same parameters). */
        bool delayedActive = false;
        nn::DelayedSaCache delayedCache;
    };

    struct FpBlock
    {
        nn::Sequential mlp;
        nn::InterpolateLayer interp;
    };

    /** One level of the SA hierarchy for one cloud. */
    struct LevelState
    {
        std::vector<Vec3> positions;
        nn::Matrix saFeatures; ///< Features after SA (level 0: input).
        std::vector<std::uint32_t> sampleIndices;
        Structurization structur;
        bool mortonSampled = false;
    };

    /**
     * One cloud's pass through the route, handed from stage to stage.
     * All members are frame-local heap state (no arena views, no
     * references into the model), so the staged executor may queue a
     * frame or run it on any worker while other frames occupy the
     * other stages.
     */
    struct Frame : StagedFrame
    {
        std::vector<LevelState> levels;
        std::vector<NeighborLists> neighbors; ///< Per SA module.
        std::vector<InterpolationPlan> plans; ///< Per FP module.

        void reset() override;
    };

    /** Sample stage: check @p cloud, fill @p frame's levels
        (positions, samples, structurizations) and FP plans. */
    void sampleStage(Frame &frame, const PointCloud &cloud,
                     const EdgePcConfig &cfg, StageTimer *timer) const;

    /** Neighbor stage: every SA module's neighbor lists. */
    void neighborStage(Frame &frame, const EdgePcConfig &cfg,
                       StageTimer *timer) const;

    /** Feature stage over the row-stacked @p frames; logits per frame. */
    std::vector<nn::Matrix> featureStage(std::span<Frame> frames,
                                         StageTimer *timer);

    /** Training route, one module at a time over trainFrame. */
    void runSaModule(std::size_t module, StageTimer *timer);
    void runFpModule(std::size_t module, StageTimer *timer);

    PointNetPPConfig cfg;
    std::vector<SaBlock> saBlocks;
    std::vector<FpBlock> fpBlocks;
    nn::Sequential head;
    nn::GlobalMaxPool globalPool;

    // Training forward state.
    Frame trainFrame;
    std::vector<nn::Matrix> fpFeatures; ///< G_l per level.
    bool trainMode = false;
};

} // namespace edgepc

#endif // EDGEPC_MODELS_POINTNETPP_HPP
