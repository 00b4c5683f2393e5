#include "nn/tensor.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "obs/trace.hpp"

namespace edgepc {
namespace nn {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : nRows(rows), nCols(cols), buf(rows * cols, 0.0f)
{
}

Matrix::Matrix(std::size_t rows, std::size_t cols, Uninitialized)
    : nRows(rows), nCols(cols), buf(rows * cols)
{
}

Matrix::Matrix(std::size_t rows, std::size_t cols,
               const std::vector<float> &data)
    : nRows(rows), nCols(cols), buf(data.begin(), data.end())
{
    if (buf.size() != rows * cols) {
        fatal("Matrix: data size %zu != %zu x %zu", buf.size(), rows, cols);
    }
}

void
Matrix::setZero()
{
    std::fill(buf.begin(), buf.end(), 0.0f);
}

void
Matrix::fillNormal(Rng &rng, float stddev)
{
    for (float &v : buf) {
        v = rng.normal(0.0f, stddev);
    }
}

void
Matrix::reshape(std::size_t rows, std::size_t cols)
{
    if (rows * cols != buf.size()) {
        fatal("Matrix::reshape: %zu x %zu != numel %zu", rows, cols,
              buf.size());
    }
    nRows = rows;
    nCols = cols;
}

void
Matrix::add(const Matrix &other)
{
    if (other.numel() != numel()) {
        fatal("Matrix::add: shape mismatch (%zu vs %zu elements)",
              other.numel(), numel());
    }
    for (std::size_t i = 0; i < buf.size(); ++i) {
        buf[i] += other.buf[i];
    }
}

void
Matrix::scale(float factor)
{
    for (float &v : buf) {
        v *= factor;
    }
}

namespace {

/** [parts[0] | parts[1] | ...], each output row written once. */
Matrix
concatColsOf(std::span<const Matrix *const> parts)
{
    const std::size_t rows = parts.front()->rows();
    std::size_t cols = 0;
    for (const Matrix *part : parts) {
        if (part->rows() != rows) {
            fatal("concatCols: row mismatch (%zu vs %zu)", part->rows(),
                  rows);
        }
        cols += part->cols();
    }
    Matrix out(rows, cols, kUninitialized);
    for (std::size_t r = 0; r < rows; ++r) {
        float *dst = out.data() + r * cols;
        for (const Matrix *part : parts) {
            const float *src = part->data() + r * part->cols();
            dst = std::copy(src, src + part->cols(), dst);
        }
    }
    return out;
}

} // namespace

Matrix
concatCols(const Matrix &a, const Matrix &b)
{
    const Matrix *const parts[] = {&a, &b};
    return concatColsOf(parts);
}

Matrix
concatCols(std::span<const Matrix> parts)
{
    EDGEPC_TRACE_SCOPE("concat", "nn");
    if (parts.empty()) {
        return Matrix();
    }
    std::vector<const Matrix *> ptrs;
    ptrs.reserve(parts.size());
    for (const Matrix &part : parts) {
        ptrs.push_back(&part);
    }
    return concatColsOf(ptrs);
}

std::pair<Matrix, Matrix>
splitCols(const Matrix &m, std::size_t left_cols)
{
    if (left_cols > m.cols()) {
        fatal("splitCols: left_cols %zu > cols %zu", left_cols, m.cols());
    }
    Matrix left(m.rows(), left_cols, kUninitialized);
    Matrix right(m.rows(), m.cols() - left_cols, kUninitialized);
    for (std::size_t r = 0; r < m.rows(); ++r) {
        const float *src = m.data() + r * m.cols();
        std::copy(src, src + left_cols, left.data() + r * left_cols);
        std::copy(src + left_cols, src + m.cols(),
                  right.data() + r * right.cols());
    }
    return {std::move(left), std::move(right)};
}

Matrix
concatRows(std::span<const Matrix> parts)
{
    if (parts.empty()) {
        return Matrix();
    }
    const std::size_t cols = parts.front().cols();
    std::size_t rows = 0;
    for (const Matrix &part : parts) {
        if (part.cols() != cols) {
            fatal("concatRows: column mismatch (%zu vs %zu)",
                  part.cols(), cols);
        }
        rows += part.rows();
    }
    Matrix out(rows, cols, kUninitialized);
    float *dst = out.data();
    for (const Matrix &part : parts) {
        std::copy(part.data(), part.data() + part.numel(), dst);
        dst += part.numel();
    }
    return out;
}

Matrix
sliceRows(const Matrix &m, std::size_t begin, std::size_t end)
{
    if (begin > end || end > m.rows()) {
        fatal("sliceRows: bad range [%zu, %zu) for %zu rows", begin, end,
              m.rows());
    }
    Matrix out(end - begin, m.cols(), kUninitialized);
    const float *src = m.data() + begin * m.cols();
    std::copy(src, src + out.numel(), out.data());
    return out;
}

Matrix
broadcastRow(const Matrix &row, std::size_t copies)
{
    if (row.rows() != 1) {
        fatal("broadcastRow: expected a single row, got %zu", row.rows());
    }
    Matrix out(copies, row.cols(), kUninitialized);
    for (std::size_t r = 0; r < copies; ++r) {
        std::copy(row.data(), row.data() + row.cols(),
                  out.data() + r * row.cols());
    }
    return out;
}

void
Parameter::init(std::size_t rows, std::size_t cols)
{
    value = Matrix(rows, cols);
    grad = Matrix(rows, cols);
}

} // namespace nn
} // namespace edgepc
