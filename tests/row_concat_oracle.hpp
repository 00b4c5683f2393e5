/**
 * @file
 * fp64 oracle for a segmentation head's first Linear,
 * [A | broadcast(row)] W + b, and the forward-error bound any fp32
 * evaluation of it must meet (DESIGN.md §19).
 *
 * Every term of output (i, j) — the K products x_k w_kj and the bias —
 * passes through at most K + 2 roundings in the folded route
 * (Linear::forwardRowConcat: the GEMV over the row, its bias add, the
 * GEMM over A and its bias add), so by the standard summation lemma
 *
 *   |got - exact| <= gamma(K + 2) * (sum_k |x_k w_kj| + |b_j|),
 *   gamma(n) = n u / (1 - n u),  u = 2^-24.
 *
 * The oracle sums exact fp32 products in fp64, in k order; its own
 * error is at most gamma64(K + 1) times the same sum (u = 2^-53), which
 * the tolerance adds.
 */

#ifndef EDGEPC_TESTS_ROW_CONCAT_ORACLE_HPP
#define EDGEPC_TESTS_ROW_CONCAT_ORACLE_HPP

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>

#include "nn/tensor.hpp"

namespace edgepc {
namespace testing_oracle {

/** gamma(n) = n u / (1 - n u) for unit roundoff @p u. */
inline double
gammaBound(std::size_t n, double u)
{
    const double nu = static_cast<double>(n) * u;
    return nu / (1.0 - nu);
}

/**
 * Check every element of @p got against the fp64 value of
 * [a | broadcast(row)] w + bias within the bound above.
 */
inline void
expectWithinRowConcatBound(const nn::Matrix &got, const nn::Matrix &a,
                           const nn::Matrix &row, const nn::Matrix &w,
                           const nn::Matrix &bias)
{
    const std::size_t ka = a.cols();
    const std::size_t k = ka + row.cols();
    ASSERT_EQ(w.rows(), k);
    ASSERT_EQ(got.rows(), a.rows());
    ASSERT_EQ(got.cols(), w.cols());
    const double tol_factor =
        gammaBound(k + 2, std::ldexp(1.0, -24)) +
        gammaBound(k + 1, std::ldexp(1.0, -53));
    for (std::size_t i = 0; i < got.rows(); ++i) {
        for (std::size_t j = 0; j < got.cols(); ++j) {
            double exact = bias.at(0, j);
            double magnitude = std::fabs(exact);
            for (std::size_t kk = 0; kk < k; ++kk) {
                const double x = kk < ka ? a.at(i, kk) : row.at(0, kk - ka);
                const double t = x * static_cast<double>(w.at(kk, j));
                exact += t;
                magnitude += std::fabs(t);
            }
            const double err = std::fabs(got.at(i, j) - exact);
            ASSERT_LE(err, tol_factor * magnitude)
                << "element (" << i << ", " << j << "): got " << got.at(i, j)
                << ", exact " << exact << ", K = " << k;
        }
    }
}

} // namespace testing_oracle
} // namespace edgepc

#endif // EDGEPC_TESTS_ROW_CONCAT_ORACLE_HPP
