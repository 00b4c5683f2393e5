/**
 * @file
 * Neural-network layers with forward and backward passes.
 *
 * The engine is deliberately small: point-cloud CNNs are built from
 * shared MLPs (1x1 convolutions == row-wise Linear layers), batch
 * normalization, ReLU and max-pooling over neighbors. All layers
 * support full manual backprop so models can be (re)trained with the
 * EdgePC approximations in the loop (Sec 5.3 of the paper).
 */

#ifndef EDGEPC_NN_LAYERS_HPP
#define EDGEPC_NN_LAYERS_HPP

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "nn/fused_tail.hpp"
#include "nn/gemm.hpp"
#include "nn/quant.hpp"
#include "nn/tensor.hpp"

namespace edgepc {
namespace nn {

/** Abstract differentiable layer. */
class Layer
{
  public:
    virtual ~Layer() = default;

    /**
     * Forward pass.
     *
     * @param input Input activations (rows x in features).
     * @param train Keep intermediates for backward() when true.
     */
    virtual Matrix forward(const Matrix &input, bool train) = 0;

    /**
     * Backward pass: given dLoss/dOutput return dLoss/dInput and
     * accumulate parameter gradients. Only valid after a
     * forward(..., true).
     */
    virtual Matrix backward(const Matrix &grad_output) = 0;

    /**
     * True when inference-mode forward() treats every row
     * independently (row-wise Linear / activation layers).
     * Sequential::forwardSegmented runs such layers once over a whole
     * row-stacked batch of clouds (large-M GEMM), while layers with
     * cross-row statistics (BatchNorm's per-cloud instance stats)
     * fall back to per-segment execution.
     */
    virtual bool rowIndependentInference() const { return false; }

    /**
     * The elementwise activation this layer is, if it is one (ReLU,
     * LeakyReLU). Sequential's inference route runs it in place, fused
     * into a preceding BatchNorm's pass (DESIGN.md §17).
     */
    virtual std::optional<Activation> activation() const
    {
        return std::nullopt;
    }

    /** Append this layer's parameters to @p out. */
    virtual void collectParameters(std::vector<Parameter *> &out)
    {
        (void)out;
    }

    /**
     * Append this layer's non-learnable state buffers (e.g. batch-norm
     * running statistics) to @p out, for serialization.
     */
    virtual void collectBuffers(std::vector<std::vector<float> *> &out)
    {
        (void)out;
    }

    /**
     * Per-layer int8-inference config (DESIGN.md §15). Linear layers
     * store it and consult resolveQuantGemm per inference forward;
     * Sequential recurses; everything else ignores it. Training and
     * backward always run fp32 regardless of this setting.
     */
    virtual void setQuantMode(QuantMode mode) { (void)mode; }
};

/**
 * Fully connected layer applied row-wise: the shared-MLP / 1x1-conv
 * building block of PointNet-family networks.
 */
class Linear : public Layer
{
  public:
    /**
     * @param in Input feature dimension.
     * @param out Output feature dimension.
     * @param rng Weight initialization stream (He init).
     * @param engine GEMM engine (defaults to the global engine, whose
     *        mode selects the CUDA-core vs Tensor-core path).
     */
    Linear(std::size_t in, std::size_t out, Rng &rng,
           GemmEngine *engine = nullptr);

    Matrix forward(const Matrix &input, bool train) override;
    Matrix backward(const Matrix &grad_output) override;
    void collectParameters(std::vector<Parameter *> &out) override;
    bool rowIndependentInference() const override { return true; }
    void setQuantMode(QuantMode mode) override { quantConfig = mode; }

    /**
     * Inference forward of [input | broadcast(row)] — a segmentation
     * head's per-point features next to the one global feature row —
     * without building the broadcast: row's share of the product,
     * row * W_bottom, is one GEMV folded into the bias, and the GEMM
     * reduces over input's columns only. Not bit-identical with
     * forward() on the materialized operand (the sum order changes);
     * the forward-error bound is DESIGN.md §19's. When the int8 route
     * takes this layer, it quantizes that materialized operand.
     */
    Matrix forwardRowConcat(const Matrix &input, const Matrix &row);

    /**
     * Inference forward followed by a max-pool of all rows of each
     * segment (segment_rows sum to input.rows()): one 1 x out row per
     * segment, bit-identical with GlobalMaxPool::forward on each
     * segment of forward(input, false). The fp32 route never stores
     * the product (GemmEngine::multiplyColumnMax); the int8 route
     * runs whole and then pools.
     */
    std::vector<Matrix> forwardColumnMax(
        const Matrix &input, std::span<const std::size_t> segment_rows);

    std::size_t inDim() const { return weight.value.rows(); }
    std::size_t outDim() const { return weight.value.cols(); }

    Parameter &weights() { return weight; }
    Parameter &biases() { return bias; }

    /** Quantized-panel rebuilds performed (cache observability). */
    std::uint64_t quantRebuilds() const { return quantCache.rebuilds(); }

  private:
    GemmEngine &gemm();

    Parameter weight; ///< in x out.
    Parameter bias;   ///< 1 x out.
    Matrix savedInput;
    GemmEngine *engineOverride;
    QuantMode quantConfig = QuantMode::Off;
    QuantPanelCache quantCache;
};

/**
 * Linear + ReLU fused into a single GEMM pass: the bias add and the
 * rectification run in the epilogue while each output tile is still
 * in registers (GemmEpilogue::BiasRelu), so the activation costs no
 * extra sweep over the output. Parameter layout matches a separate
 * Linear + ReLU pair (weight, bias; ReLU holds no parameters), so
 * serialized checkpoints are interchangeable.
 */
class LinearRelu : public Layer
{
  public:
    LinearRelu(std::size_t in, std::size_t out, Rng &rng,
               GemmEngine *engine = nullptr);

    Matrix forward(const Matrix &input, bool train) override;
    Matrix backward(const Matrix &grad_output) override;
    void collectParameters(std::vector<Parameter *> &out) override;
    bool rowIndependentInference() const override { return true; }
    void setQuantMode(QuantMode mode) override { quantConfig = mode; }

    std::size_t inDim() const { return weight.value.rows(); }
    std::size_t outDim() const { return weight.value.cols(); }

    Parameter &weights() { return weight; }
    Parameter &biases() { return bias; }

    /** Quantized-panel rebuilds performed (cache observability). */
    std::uint64_t quantRebuilds() const { return quantCache.rebuilds(); }

  private:
    GemmEngine &gemm();

    Parameter weight; ///< in x out.
    Parameter bias;   ///< 1 x out.
    Matrix savedInput;
    /** ReLU mask from the last train forward (out > 0 iff pre > 0). */
    std::vector<std::uint8_t> mask;
    GemmEngine *engineOverride;
    QuantMode quantConfig = QuantMode::Off;
    QuantPanelCache quantCache;
};

/**
 * Batch normalization over rows (per-feature statistics).
 *
 * The engine processes one cloud per forward pass, so multi-row
 * batch statistics are per-cloud (instance) statistics and are used
 * at inference as well as in training; running averages back only
 * the single-row case (after global pooling). See the rationale in
 * layers.cpp.
 */
class BatchNorm : public Layer
{
  public:
    explicit BatchNorm(std::size_t features, float momentum = 0.1f,
                       float epsilon = 1e-5f);

    Matrix forward(const Matrix &input, bool train) override;
    Matrix backward(const Matrix &grad_output) override;
    void collectParameters(std::vector<Parameter *> &out) override;
    void collectBuffers(std::vector<std::vector<float> *> &out) override;

    /** This layer's parameters for the fused tail; @p cols must match
        the configured feature count. */
    TailNorm tailNorm(std::size_t cols) const;

  private:
    Parameter gamma; ///< 1 x features (scale).
    Parameter beta;  ///< 1 x features (shift).
    std::vector<float> runningMean;
    std::vector<float> runningVar;
    float mom;
    float eps;

    // Saved for backward.
    Matrix savedNormalized;
    std::vector<float> savedInvStd;
    /**
     * Whether the last train-mode forward normalized with batch
     * statistics. Single-row batches fall back to the running stats
     * (their batch variance is degenerate), which decouples the
     * normalization from the inputs and changes the backward formula.
     */
    bool usedBatchStats = false;
};

/** Rectified linear unit. */
class ReLU : public Layer
{
  public:
    Matrix forward(const Matrix &input, bool train) override;
    Matrix backward(const Matrix &grad_output) override;
    bool rowIndependentInference() const override { return true; }
    std::optional<Activation> activation() const override
    {
        return Activation{Activation::Kind::Relu, 0.0f};
    }

  private:
    std::vector<std::uint8_t> mask;
};

/**
 * Leaky rectified linear unit (DGCNN uses slope 0.2 throughout; the
 * nonzero negative slope prevents units from dying, which matters for
 * the features feeding the global max-pool).
 */
class LeakyReLU : public Layer
{
  public:
    explicit LeakyReLU(float negative_slope = 0.2f);

    Matrix forward(const Matrix &input, bool train) override;
    Matrix backward(const Matrix &grad_output) override;
    bool rowIndependentInference() const override { return true; }
    std::optional<Activation> activation() const override
    {
        return Activation{Activation::Kind::LeakyRelu, slope};
    }

  private:
    float slope;
    std::vector<std::uint8_t> mask;
};

/** A stack of layers executed in order. */
class Sequential : public Layer
{
  public:
    Sequential() = default;

    /** Append a layer (takes ownership). */
    void add(std::unique_ptr<Layer> layer);

    /** Convenience: Linear -> BatchNorm -> ReLU block. */
    void addLinearBnRelu(std::size_t in, std::size_t out, Rng &rng,
                         GemmEngine *engine = nullptr);

    /** Convenience: epilogue-fused Linear + ReLU block (no BN). */
    void addLinearRelu(std::size_t in, std::size_t out, Rng &rng,
                       GemmEngine *engine = nullptr);

    Matrix forward(const Matrix &input, bool train) override;
    Matrix backward(const Matrix &grad_output) override;
    void collectParameters(std::vector<Parameter *> &out) override;
    void collectBuffers(std::vector<std::vector<float> *> &out) override;
    void setQuantMode(QuantMode mode) override;

    /** True when every child layer is row-independent at inference. */
    bool rowIndependentInference() const override;

    /**
     * Inference-only forward over a row-stacked batch of independent
     * clouds: @p input holds the clouds' rows back to back and
     * @p segment_rows gives each cloud's row count (must sum to
     * input.rows()). Row-independent layers run once at full batch
     * height — this is where the packed GEMM gets its large-M shape —
     * while BatchNorm normalizes each segment with its own statistics,
     * so the result is bit-identical with per-cloud forward().
     *
     * The rvalue form works in place on @p input: each BatchNorm and
     * activation pair is one fused pass over it, and a GEMM output is
     * the only matrix a layer allocates. The const form never writes
     * the caller's matrix (its first elementwise pass writes a copy).
     *
     * @param first_layer Skip layers [0, first_layer): the delayed
     *        aggregation route runs the first Linear itself (over the
     *        unique rows, pre-gather) and feeds the combined
     *        pre-activations to the remaining tail.
     */
    Matrix forwardSegmented(Matrix &&input,
                            std::span<const std::size_t> segment_rows,
                            std::size_t first_layer = 0);
    Matrix forwardSegmented(const Matrix &input,
                            std::span<const std::size_t> segment_rows,
                            std::size_t first_layer = 0);

    /**
     * forwardSegmented followed by a max-pool over consecutive groups
     * of group_k[s] rows inside each segment s (a neighbor max-pool;
     * one group of all rows is a global max-pool). Returns segment s's
     * pooled segment_rows[s] / group_k[s] rows as element s. When the
     * stack ends in BatchNorm and/or an activation, the pool runs on
     * the raw pre-activation and only the pooled rows are normalized,
     * bit-identical with the unfused order (DESIGN.md §17).
     */
    std::vector<Matrix> forwardPooled(Matrix &&input,
                                      std::span<const std::size_t> segment_rows,
                                      std::span<const std::size_t> group_k,
                                      std::size_t first_layer = 0);
    std::vector<Matrix> forwardPooled(const Matrix &input,
                                      std::span<const std::size_t> segment_rows,
                                      std::span<const std::size_t> group_k,
                                      std::size_t first_layer = 0);

    /**
     * True when layers [first, size()) are exactly a BatchNorm and an
     * optional activation: the block's whole tail, as the fused pooled
     * kernels take it. Fills @p norm and @p act (identity when none).
     */
    bool normTailFrom(std::size_t first, std::size_t cols, TailNorm &norm,
                      Activation &act) const;

    /** Child layer @p i (0-based, owned; bounds-checked). */
    Layer *layerAt(std::size_t i) { return layers.at(i).get(); }

    /**
     * forward() starting at layer @p first: runs layers
     * [first, size()) on @p input — the delayed-aggregation tail pass.
     * At inference it is the in-place route of forwardSegmented over
     * one segment; @p input is never written.
     */
    Matrix forwardFrom(std::size_t first, const Matrix &input, bool train);

    /**
     * backward() stopping before layer @p first: runs the layers in
     * reverse down to and including layer @p first and returns the
     * gradient w.r.t. that layer's input. Pairs with forwardFrom.
     */
    Matrix backwardFrom(std::size_t first, const Matrix &grad_output);

    std::size_t size() const { return layers.size(); }

  private:
    /**
     * Inference over layers [first, last). The first layer reads
     * @p src when it is set (a caller-owned matrix) and @p x
     * otherwise; every later layer reads @p x, which elementwise
     * passes rewrite in place. Clears @p src once @p x holds the
     * activations.
     */
    void inferLayers(const Matrix *&src, Matrix &x,
                     std::span<const std::size_t> segment_rows,
                     std::size_t first, std::size_t last);

    std::vector<Matrix> inferPooled(const Matrix *src, Matrix &x,
                                    std::span<const std::size_t> segment_rows,
                                    std::span<const std::size_t> group_k,
                                    std::size_t first);

    std::vector<std::unique_ptr<Layer>> layers;
};

/**
 * Max-pool over fixed-size groups of consecutive rows: reduces a
 * (points * k) x C matrix to points x C, taking the max across each
 * point's k neighbor rows (the aggregation step of SA / EdgeConv).
 */
class MaxPoolNeighbors : public Layer
{
  public:
    /** @param group_size Rows pooled per output row (k). */
    explicit MaxPoolNeighbors(std::size_t group_size);

    Matrix forward(const Matrix &input, bool train) override;
    Matrix backward(const Matrix &grad_output) override;

  private:
    std::size_t k;
    std::vector<std::uint32_t> argmax;
    std::size_t savedRows = 0;
};

/** Max-pool all rows into a single row (global feature). */
class GlobalMaxPool : public Layer
{
  public:
    Matrix forward(const Matrix &input, bool train) override;
    Matrix backward(const Matrix &grad_output) override;

  private:
    std::vector<std::uint32_t> argmax;
    std::size_t savedRows = 0;
};

} // namespace nn
} // namespace edgepc

#endif // EDGEPC_NN_LAYERS_HPP
