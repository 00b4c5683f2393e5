#include "nn/layers.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "common/thread_pool.hpp"

namespace edgepc {
namespace nn {

// ---------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------

Linear::Linear(std::size_t in, std::size_t out, Rng &rng,
               GemmEngine *engine)
    : engineOverride(engine)
{
    weight.init(in, out);
    bias.init(1, out);
    // He initialization suits the ReLU blocks these layers live in.
    const float stddev = std::sqrt(2.0f / static_cast<float>(in));
    weight.value.fillNormal(rng, stddev);
}

GemmEngine &
Linear::gemm()
{
    return engineOverride ? *engineOverride : GemmEngine::globalEngine();
}

Matrix
Linear::forward(const Matrix &input, bool train)
{
    if (input.cols() != weight.value.rows()) {
        fatal("Linear::forward: input dim %zu != weight dim %zu",
              input.cols(), weight.value.rows());
    }
    if (!train &&
        resolveQuantGemm(quantConfig, input.rows(), input.cols())) {
        // Int8 inference route: cached quantized panels, dynamic
        // activation scales, dequant+bias fused into the tile store.
        // (The quant route always fuses its epilogue — the int32
        // accumulators must be rescaled while hot.)
        auto wq = quantCache.get(weight.value);
        return gemm().multiplyQuantized(input, *wq, GemmEpilogue::Bias,
                                        bias.value);
    }
    // Bias is added in the GEMM epilogue: one pass over the output
    // instead of a second sweep.
    Matrix out = gemm().multiply(input, weight.value, GemmEpilogue::Bias,
                                 bias.value);
    if (train) {
        savedInput = input;
    }
    return out;
}

Matrix
Linear::forwardRowConcat(const Matrix &input, const Matrix &row)
{
    const std::size_t in = weight.value.rows();
    const std::size_t n = weight.value.cols();
    if (row.rows() != 1 || input.cols() + row.cols() != in) {
        fatal("Linear::forwardRowConcat: [%zux%zu | %zux%zu] into weight "
              "dim %zu",
              input.rows(), input.cols(), row.rows(), row.cols(), in);
    }
    if (resolveQuantGemm(quantConfig, input.rows(), in)) {
        return forward(concatCols(input, broadcastRow(row, input.rows())),
                       false);
    }
    // [A | 1 row] W + b = A W_top + (row W_bottom + b): the row's share
    // is the same for every output row, so it joins the bias
    // (DESIGN.md §19). W_top and W_bottom are W's first input.cols()
    // rows and the rest, read in place.
    const float *w_top = weight.value.data();
    const float *w_bottom = w_top + input.cols() * n;
    Matrix folded(1, n, kUninitialized);
    gemm().gemm(row.data(), w_bottom, folded.data(), 1, row.cols(), n,
                GemmEpilogue::Bias, bias.value.data());
    Matrix out(input.rows(), n, kUninitialized);
    gemm().gemm(input.data(), w_top, out.data(), input.rows(), input.cols(),
                n, GemmEpilogue::Bias, folded.data());
    return out;
}

std::vector<Matrix>
Linear::forwardColumnMax(const Matrix &input,
                         std::span<const std::size_t> segment_rows)
{
    if (input.cols() != weight.value.rows()) {
        fatal("Linear::forwardColumnMax: input dim %zu != weight dim %zu",
              input.cols(), weight.value.rows());
    }
    std::vector<Matrix> out(segment_rows.size());
    if (resolveQuantGemm(quantConfig, input.rows(), input.cols())) {
        // The int8 route quantizes per call: run it whole, then pool.
        for (Matrix &row : out) {
            row = Matrix(1, outDim(), kUninitialized);
        }
        fusedTailPool(forward(input, false), segment_rows, segment_rows,
                      nullptr, Activation{}, out);
        return out;
    }
    const Matrix pooled = gemm().multiplyColumnMax(input, weight.value,
                                                   bias.value, segment_rows);
    for (std::size_t s = 0; s < out.size(); ++s) {
        out[s] = sliceRows(pooled, s, s + 1);
    }
    return out;
}

Matrix
Linear::backward(const Matrix &grad_output)
{
    // dW += X^T * dY ; db += column sums of dY ; dX = dY * W^T.
    gemm().multiplyLeftTransposedAdd(savedInput, grad_output, weight.grad);

    for (std::size_t r = 0; r < grad_output.rows(); ++r) {
        const float *row = grad_output.data() + r * grad_output.cols();
        float *bg = bias.grad.data();
        for (std::size_t c = 0; c < grad_output.cols(); ++c) {
            bg[c] += row[c];
        }
    }
    return gemm().multiplyTransposed(grad_output, weight.value);
}

void
Linear::collectParameters(std::vector<Parameter *> &out)
{
    out.push_back(&weight);
    out.push_back(&bias);
}

// ---------------------------------------------------------------------
// LinearRelu
// ---------------------------------------------------------------------

LinearRelu::LinearRelu(std::size_t in, std::size_t out, Rng &rng,
                       GemmEngine *engine)
    : engineOverride(engine)
{
    weight.init(in, out);
    bias.init(1, out);
    const float stddev = std::sqrt(2.0f / static_cast<float>(in));
    weight.value.fillNormal(rng, stddev);
}

GemmEngine &
LinearRelu::gemm()
{
    return engineOverride ? *engineOverride : GemmEngine::globalEngine();
}

Matrix
LinearRelu::forward(const Matrix &input, bool train)
{
    if (input.cols() != weight.value.rows()) {
        fatal("LinearRelu::forward: input dim %zu != weight dim %zu",
              input.cols(), weight.value.rows());
    }
    if (!train &&
        resolveQuantGemm(quantConfig, input.rows(), input.cols())) {
        // Int8 inference route (see Linear::forward); ReLU joins the
        // fused dequant epilogue. Training never reaches this branch,
        // so the saved input and ReLU mask stay fp32-derived.
        auto wq = quantCache.get(weight.value);
        return gemm().multiplyQuantized(input, *wq,
                                        GemmEpilogue::BiasRelu,
                                        bias.value);
    }
    Matrix out = gemm().multiply(input, weight.value,
                                 GemmEpilogue::BiasRelu, bias.value);
    if (train) {
        savedInput = input;
        // The pre-activation is positive exactly where the output is,
        // so the ReLU mask is recoverable from the fused output.
        mask.assign(out.numel(), 0);
        const float *data = out.data();
        for (std::size_t i = 0; i < out.numel(); ++i) {
            if (data[i] > 0.0f) {
                mask[i] = 1;
            }
        }
    }
    return out;
}

Matrix
LinearRelu::backward(const Matrix &grad_output)
{
    // Gate the incoming gradient by the ReLU mask, then backprop
    // through the affine part exactly as Linear does.
    Matrix gated = grad_output;
    float *gd = gated.data();
    for (std::size_t i = 0; i < gated.numel(); ++i) {
        if (!mask[i]) {
            gd[i] = 0.0f;
        }
    }

    gemm().multiplyLeftTransposedAdd(savedInput, gated, weight.grad);

    for (std::size_t r = 0; r < gated.rows(); ++r) {
        const float *row = gated.data() + r * gated.cols();
        float *bg = bias.grad.data();
        for (std::size_t c = 0; c < gated.cols(); ++c) {
            bg[c] += row[c];
        }
    }
    return gemm().multiplyTransposed(gated, weight.value);
}

void
LinearRelu::collectParameters(std::vector<Parameter *> &out)
{
    out.push_back(&weight);
    out.push_back(&bias);
}

// ---------------------------------------------------------------------
// BatchNorm
// ---------------------------------------------------------------------

BatchNorm::BatchNorm(std::size_t features, float momentum, float epsilon)
    : runningMean(features, 0.0f), runningVar(features, 1.0f),
      mom(momentum), eps(epsilon)
{
    gamma.init(1, features);
    beta.init(1, features);
    for (std::size_t c = 0; c < features; ++c) {
        gamma.value.at(0, c) = 1.0f;
    }
}

Matrix
BatchNorm::forward(const Matrix &input, bool train)
{
    const std::size_t rows = input.rows();
    const std::size_t cols = input.cols();
    if (cols != runningMean.size()) {
        fatal("BatchNorm::forward: feature dim %zu != configured %zu",
              cols, runningMean.size());
    }
    // Both routes below write every element.
    Matrix out(rows, cols, kUninitialized);
    if (!train) {
        // Inference is the fused tail's kernel (DESIGN.md §17): the
        // same statistics policy, one pass over the rows.
        const TailNorm norm = tailNorm(cols);
        const std::size_t segment[] = {rows};
        fusedTailRows(input, out, segment, &norm, Activation{});
        return out;
    }

    // This engine processes one cloud per forward pass, so the batch
    // statistics are per-cloud (instance) statistics. They are used
    // at inference as well: the reference implementations train with
    // large multi-cloud batches whose statistics match their running
    // averages, but here per-cloud statistics differ strongly across
    // inputs and normalizing with the blended running average at eval
    // would put activations outside the trained regime. Running
    // statistics still back the single-row case (classifier heads
    // after global pooling), where a per-batch variance is degenerate.
    std::vector<float> mean(cols), var(cols);
    usedBatchStats = rows > 1;
    if (usedBatchStats) {
        columnStats(input.data(), rows, cols, mean.data(), var.data());
        for (std::size_t c = 0; c < cols; ++c) {
            runningMean[c] = (1.0f - mom) * runningMean[c] + mom * mean[c];
            runningVar[c] = (1.0f - mom) * runningVar[c] + mom * var[c];
        }
    } else {
        mean = runningMean;
        var = runningVar;
    }

    savedInvStd.resize(cols);
    for (std::size_t c = 0; c < cols; ++c) {
        savedInvStd[c] = 1.0f / std::sqrt(var[c] + eps);
    }

    savedNormalized = Matrix(rows, cols);
    const float *g = gamma.value.data();
    const float *b = beta.value.data();
    parallelFor(0, rows, [&](std::size_t r) {
        const float *in_row = input.data() + r * cols;
        float *out_row = out.data() + r * cols;
        float *norm_row = savedNormalized.data() + r * cols;
        for (std::size_t c = 0; c < cols; ++c) {
            const float normalized =
                (in_row[c] - mean[c]) * savedInvStd[c];
            norm_row[c] = normalized;
            out_row[c] = g[c] * normalized + b[c];
        }
    });
    return out;
}

TailNorm
BatchNorm::tailNorm(std::size_t cols) const
{
    if (cols != runningMean.size()) {
        fatal("BatchNorm: feature dim %zu != configured %zu", cols,
              runningMean.size());
    }
    return TailNorm{gamma.value.data(), beta.value.data(),
                    runningMean.data(), runningVar.data(), eps};
}

Matrix
BatchNorm::backward(const Matrix &grad_output)
{
    const std::size_t rows = grad_output.rows();
    const std::size_t cols = grad_output.cols();
    const auto frows = static_cast<float>(rows);

    // Per-feature reductions: sum(dY), sum(dY * xhat).
    std::vector<float> sum_dy(cols, 0.0f), sum_dy_xhat(cols, 0.0f);
    for (std::size_t r = 0; r < rows; ++r) {
        const float *dy = grad_output.data() + r * cols;
        const float *xh = savedNormalized.data() + r * cols;
        for (std::size_t c = 0; c < cols; ++c) {
            sum_dy[c] += dy[c];
            sum_dy_xhat[c] += dy[c] * xh[c];
        }
    }
    for (std::size_t c = 0; c < cols; ++c) {
        gamma.grad.at(0, c) += sum_dy_xhat[c];
        beta.grad.at(0, c) += sum_dy[c];
    }

    Matrix grad_in(rows, cols);
    const float *g = gamma.value.data();
    parallelFor(0, rows, [&](std::size_t r) {
        const float *dy = grad_output.data() + r * cols;
        const float *xh = savedNormalized.data() + r * cols;
        float *dx = grad_in.data() + r * cols;
        for (std::size_t c = 0; c < cols; ++c) {
            if (usedBatchStats) {
                // Standard batch-norm input gradient.
                dx[c] = g[c] * savedInvStd[c] *
                        (dy[c] - sum_dy[c] / frows -
                         xh[c] * sum_dy_xhat[c] / frows);
            } else {
                // Running-stats normalization is an affine map of the
                // input, so the statistics terms vanish.
                dx[c] = g[c] * savedInvStd[c] * dy[c];
            }
        }
    });
    return grad_in;
}

void
BatchNorm::collectParameters(std::vector<Parameter *> &out)
{
    out.push_back(&gamma);
    out.push_back(&beta);
}

void
BatchNorm::collectBuffers(std::vector<std::vector<float> *> &out)
{
    out.push_back(&runningMean);
    out.push_back(&runningVar);
}

// ---------------------------------------------------------------------
// ReLU
// ---------------------------------------------------------------------

Matrix
ReLU::forward(const Matrix &input, bool train)
{
    if (!train) {
        Matrix out(input.rows(), input.cols(), kUninitialized);
        const std::size_t segment[] = {input.rows()};
        fusedTailRows(input, out, segment, nullptr, *activation());
        return out;
    }
    Matrix out = input;
    mask.assign(input.numel(), 0);
    float *data = out.data();
    for (std::size_t i = 0; i < out.numel(); ++i) {
        if (data[i] > 0.0f) {
            mask[i] = 1;
        } else {
            data[i] = 0.0f;
        }
    }
    return out;
}

Matrix
ReLU::backward(const Matrix &grad_output)
{
    Matrix grad_in = grad_output;
    float *data = grad_in.data();
    for (std::size_t i = 0; i < grad_in.numel(); ++i) {
        if (!mask[i]) {
            data[i] = 0.0f;
        }
    }
    return grad_in;
}

// ---------------------------------------------------------------------
// LeakyReLU
// ---------------------------------------------------------------------

LeakyReLU::LeakyReLU(float negative_slope) : slope(negative_slope) {}

Matrix
LeakyReLU::forward(const Matrix &input, bool train)
{
    if (!train) {
        Matrix out(input.rows(), input.cols(), kUninitialized);
        const std::size_t segment[] = {input.rows()};
        fusedTailRows(input, out, segment, nullptr, *activation());
        return out;
    }
    Matrix out = input;
    mask.assign(input.numel(), 0);
    float *data = out.data();
    for (std::size_t i = 0; i < out.numel(); ++i) {
        if (data[i] > 0.0f) {
            mask[i] = 1;
        } else {
            data[i] *= slope;
        }
    }
    return out;
}

Matrix
LeakyReLU::backward(const Matrix &grad_output)
{
    Matrix grad_in = grad_output;
    float *data = grad_in.data();
    for (std::size_t i = 0; i < grad_in.numel(); ++i) {
        if (!mask[i]) {
            data[i] *= slope;
        }
    }
    return grad_in;
}

// ---------------------------------------------------------------------
// Sequential
// ---------------------------------------------------------------------

void
Sequential::add(std::unique_ptr<Layer> layer)
{
    layers.push_back(std::move(layer));
}

void
Sequential::addLinearBnRelu(std::size_t in, std::size_t out, Rng &rng,
                            GemmEngine *engine)
{
    add(std::make_unique<Linear>(in, out, rng, engine));
    add(std::make_unique<BatchNorm>(out));
    add(std::make_unique<ReLU>());
}

void
Sequential::addLinearRelu(std::size_t in, std::size_t out, Rng &rng,
                          GemmEngine *engine)
{
    add(std::make_unique<LinearRelu>(in, out, rng, engine));
}

Matrix
Sequential::forward(const Matrix &input, bool train)
{
    return forwardFrom(0, input, train);
}

Matrix
Sequential::forwardFrom(std::size_t first, const Matrix &input, bool train)
{
    if (first > layers.size()) {
        fatal("forwardFrom: first layer %zu > size %zu", first,
              layers.size());
    }
    if (!train) {
        const std::size_t segment[] = {input.rows()};
        return forwardSegmented(input, segment, first);
    }
    Matrix x = input;
    for (std::size_t i = first; i < layers.size(); ++i) {
        x = layers[i]->forward(x, train);
    }
    return x;
}

Matrix
Sequential::backwardFrom(std::size_t first, const Matrix &grad_output)
{
    if (first > layers.size()) {
        fatal("backwardFrom: first layer %zu > size %zu", first,
              layers.size());
    }
    Matrix g = grad_output;
    for (std::size_t i = layers.size(); i > first; --i) {
        g = layers[i - 1]->backward(g);
    }
    return g;
}

void
Sequential::setQuantMode(QuantMode mode)
{
    for (auto &layer : layers) {
        layer->setQuantMode(mode);
    }
}

bool
Sequential::rowIndependentInference() const
{
    for (const auto &layer : layers) {
        if (!layer->rowIndependentInference()) {
            return false;
        }
    }
    return true;
}

void
Sequential::inferLayers(const Matrix *&src, Matrix &x,
                        std::span<const std::size_t> segment_rows,
                        std::size_t first, std::size_t last)
{
    for (std::size_t li = first; li < last; ++li) {
        Layer &layer = *layers[li];
        const Matrix &in = src != nullptr ? *src : x;
        // A single segment is the whole matrix, whatever its height
        // after an earlier row-changing layer.
        const std::size_t whole[] = {in.rows()};
        const std::span<const std::size_t> segs =
            segment_rows.size() == 1 ? std::span<const std::size_t>(whole)
                                     : segment_rows;
        const auto *bn = dynamic_cast<const BatchNorm *>(&layer);
        std::optional<Activation> act = layer.activation();
        if (bn != nullptr || act) {
            // BatchNorm and the activation after it are one pass.
            if (bn != nullptr && li + 1 < last) {
                act = layers[li + 1]->activation();
                li += act ? 1 : 0;
            }
            TailNorm norm;
            if (bn != nullptr) {
                norm = bn->tailNorm(in.cols());
            }
            if (src != nullptr) {
                x = Matrix(in.rows(), in.cols(), kUninitialized);
            }
            fusedTailRows(in, x, segs, bn != nullptr ? &norm : nullptr,
                          act.value_or(Activation{}));
            src = nullptr;
            continue;
        }
        if (layer.rowIndependentInference() || segs.size() == 1) {
            x = layer.forward(in, false);
            src = nullptr;
            continue;
        }
        // Cross-row layers without a fused kernel run per segment.
        Matrix out;
        std::size_t offset = 0;
        for (std::size_t s = 0; s < segs.size(); ++s) {
            Matrix seg = sliceRows(in, offset, offset + segs[s]);
            Matrix y = layer.forward(seg, false);
            if (y.rows() != segs[s]) {
                fatal("forwardSegmented: layer changed segment rows "
                      "(%zu -> %zu)",
                      segs[s], y.rows());
            }
            if (s == 0) {
                out = Matrix(in.rows(), y.cols(), kUninitialized);
            }
            std::copy(y.data(), y.data() + y.numel(),
                      out.data() + offset * y.cols());
            offset += segs[s];
        }
        x = std::move(out);
        src = nullptr;
    }
}

namespace {

void
checkSegments(const char *what, std::size_t first, std::size_t size,
              std::span<const std::size_t> segment_rows, std::size_t rows)
{
    if (first > size) {
        fatal("%s: first layer %zu > size %zu", what, first, size);
    }
    std::size_t total = 0;
    for (std::size_t r : segment_rows) {
        total += r;
    }
    if (total != rows) {
        fatal("%s: segment rows %zu != input rows %zu", what, total, rows);
    }
}

} // namespace

Matrix
Sequential::forwardSegmented(Matrix &&input,
                             std::span<const std::size_t> segment_rows,
                             std::size_t first_layer)
{
    checkSegments("forwardSegmented", first_layer, layers.size(),
                  segment_rows, input.rows());
    Matrix x = std::move(input);
    const Matrix *src = nullptr;
    inferLayers(src, x, segment_rows, first_layer, layers.size());
    return x;
}

Matrix
Sequential::forwardSegmented(const Matrix &input,
                             std::span<const std::size_t> segment_rows,
                             std::size_t first_layer)
{
    checkSegments("forwardSegmented", first_layer, layers.size(),
                  segment_rows, input.rows());
    Matrix x;
    const Matrix *src = &input;
    inferLayers(src, x, segment_rows, first_layer, layers.size());
    return src != nullptr ? input : x;
}

std::vector<Matrix>
Sequential::inferPooled(const Matrix *src, Matrix &x,
                        std::span<const std::size_t> segment_rows,
                        std::span<const std::size_t> group_k,
                        std::size_t first)
{
    // Peel the trailing [BatchNorm][activation]: the pool runs between
    // the raw pre-activation and the tail (DESIGN.md §17).
    std::size_t end = layers.size();
    Activation act;
    if (end > first) {
        if (const auto a = layers[end - 1]->activation()) {
            act = *a;
            --end;
        }
    }
    const BatchNorm *bn = nullptr;
    if (end > first) {
        bn = dynamic_cast<const BatchNorm *>(layers[end - 1].get());
        end -= bn != nullptr ? 1 : 0;
    }
    if (group_k.size() != segment_rows.size()) {
        fatal("forwardPooled: %zu group sizes for %zu segments",
              group_k.size(), segment_rows.size());
    }
    bool global = true;
    for (std::size_t s = 0; s < group_k.size(); ++s) {
        if (group_k[s] == 0) {
            fatal("forwardPooled: group size must be > 0");
        }
        global = global && group_k[s] == segment_rows[s];
    }
    // A lone Linear into a global pool, closed by an activation that
    // pooling may precede: the GEMM streams into the pool and its
    // output is never stored (DESIGN.md §19).
    const bool monotone =
        act.kind == Activation::Kind::Identity ||
        (act.kind == Activation::Kind::LeakyRelu && act.slope > 0.0f &&
         std::isfinite(act.slope));
    auto *linear = end == first + 1 && bn == nullptr && global && monotone
                       ? dynamic_cast<Linear *>(layers[first].get())
                       : nullptr;
    if (linear != nullptr) {
        std::vector<Matrix> out = linear->forwardColumnMax(
            src != nullptr ? *src : x, segment_rows);
        for (Matrix &row : out) {
            if (act.kind != Activation::Kind::Identity) {
                const std::size_t one[] = {1};
                fusedTailRows(row, row, one, nullptr, act);
            }
        }
        return out;
    }
    inferLayers(src, x, segment_rows, first, end);
    const Matrix &in = src != nullptr ? *src : x;
    std::vector<Matrix> out(segment_rows.size());
    for (std::size_t s = 0; s < out.size(); ++s) {
        out[s] = Matrix(segment_rows[s] / group_k[s], in.cols(),
                        kUninitialized);
    }
    TailNorm norm;
    if (bn != nullptr) {
        norm = bn->tailNorm(in.cols());
    }
    fusedTailPool(in, segment_rows, group_k, bn != nullptr ? &norm : nullptr,
                  act, out);
    return out;
}

std::vector<Matrix>
Sequential::forwardPooled(Matrix &&input,
                          std::span<const std::size_t> segment_rows,
                          std::span<const std::size_t> group_k,
                          std::size_t first_layer)
{
    checkSegments("forwardPooled", first_layer, layers.size(), segment_rows,
                  input.rows());
    Matrix x = std::move(input);
    return inferPooled(nullptr, x, segment_rows, group_k, first_layer);
}

std::vector<Matrix>
Sequential::forwardPooled(const Matrix &input,
                          std::span<const std::size_t> segment_rows,
                          std::span<const std::size_t> group_k,
                          std::size_t first_layer)
{
    checkSegments("forwardPooled", first_layer, layers.size(), segment_rows,
                  input.rows());
    Matrix x;
    return inferPooled(&input, x, segment_rows, group_k, first_layer);
}

bool
Sequential::normTailFrom(std::size_t first, std::size_t cols,
                         TailNorm &norm, Activation &act) const
{
    const std::size_t n = layers.size();
    if (first >= n || n - first > 2) {
        return false;
    }
    const auto *bn = dynamic_cast<const BatchNorm *>(layers[first].get());
    if (bn == nullptr) {
        return false;
    }
    act = Activation{};
    if (first + 1 < n) {
        const auto a = layers[first + 1]->activation();
        if (!a) {
            return false;
        }
        act = *a;
    }
    norm = bn->tailNorm(cols);
    return true;
}

Matrix
Sequential::backward(const Matrix &grad_output)
{
    return backwardFrom(0, grad_output);
}

void
Sequential::collectParameters(std::vector<Parameter *> &out)
{
    for (auto &layer : layers) {
        layer->collectParameters(out);
    }
}

void
Sequential::collectBuffers(std::vector<std::vector<float> *> &out)
{
    for (auto &layer : layers) {
        layer->collectBuffers(out);
    }
}

// ---------------------------------------------------------------------
// MaxPoolNeighbors
// ---------------------------------------------------------------------

MaxPoolNeighbors::MaxPoolNeighbors(std::size_t group_size) : k(group_size)
{
    if (group_size == 0) {
        fatal("MaxPoolNeighbors: group size must be > 0");
    }
}

Matrix
MaxPoolNeighbors::forward(const Matrix &input, bool train)
{
    if (input.rows() % k != 0) {
        fatal("MaxPoolNeighbors: rows %zu not a multiple of k=%zu",
              input.rows(), k);
    }
    const std::size_t points = input.rows() / k;
    const std::size_t cols = input.cols();
    // Both routes below write every element.
    Matrix out(points, cols, kUninitialized);
    if (!train) {
        const std::size_t segment[] = {input.rows()};
        const std::size_t group[] = {k};
        fusedTailPool(input, segment, group, nullptr, Activation{},
                      std::span<Matrix>(&out, 1));
        return out;
    }
    argmax.assign(points * cols, 0);
    savedRows = input.rows();

    parallelFor(0, points, [&](std::size_t p) {
        float *out_row = out.data() + p * cols;
        const float *first = input.data() + p * k * cols;
        for (std::size_t c = 0; c < cols; ++c) {
            out_row[c] = first[c];
        }
        std::uint32_t *amax = argmax.data() + p * cols;
        for (std::size_t c = 0; c < cols; ++c) {
            amax[c] = static_cast<std::uint32_t>(p * k);
        }
        for (std::size_t j = 1; j < k; ++j) {
            const float *row = input.data() + (p * k + j) * cols;
            for (std::size_t c = 0; c < cols; ++c) {
                if (row[c] > out_row[c]) {
                    out_row[c] = row[c];
                    amax[c] = static_cast<std::uint32_t>(p * k + j);
                }
            }
        }
    });
    return out;
}

Matrix
MaxPoolNeighbors::backward(const Matrix &grad_output)
{
    const std::size_t cols = grad_output.cols();
    Matrix grad_in(savedRows, cols);
    for (std::size_t p = 0; p < grad_output.rows(); ++p) {
        const float *dy = grad_output.data() + p * cols;
        const std::uint32_t *amax = argmax.data() + p * cols;
        for (std::size_t c = 0; c < cols; ++c) {
            grad_in.at(amax[c], c) += dy[c];
        }
    }
    return grad_in;
}

// ---------------------------------------------------------------------
// GlobalMaxPool
// ---------------------------------------------------------------------

Matrix
GlobalMaxPool::forward(const Matrix &input, bool train)
{
    if (input.rows() == 0) {
        fatal("GlobalMaxPool: empty input");
    }
    const std::size_t cols = input.cols();
    // Both routes below write every element.
    Matrix out(1, cols, kUninitialized);
    if (!train) {
        // One group of every row, split over the columns.
        const std::size_t segment[] = {input.rows()};
        fusedTailPool(input, segment, segment, nullptr, Activation{},
                      std::span<Matrix>(&out, 1));
        return out;
    }
    argmax.assign(cols, 0);
    savedRows = input.rows();
    for (std::size_t c = 0; c < cols; ++c) {
        out.at(0, c) = input.at(0, c);
    }
    for (std::size_t r = 1; r < input.rows(); ++r) {
        const float *row = input.data() + r * cols;
        for (std::size_t c = 0; c < cols; ++c) {
            if (row[c] > out.at(0, c)) {
                out.at(0, c) = row[c];
                argmax[c] = static_cast<std::uint32_t>(r);
            }
        }
    }
    return out;
}

Matrix
GlobalMaxPool::backward(const Matrix &grad_output)
{
    Matrix grad_in(savedRows, grad_output.cols());
    for (std::size_t c = 0; c < grad_output.cols(); ++c) {
        grad_in.at(argmax[c], c) += grad_output.at(0, c);
    }
    return grad_in;
}

} // namespace nn
} // namespace edgepc
