/**
 * @file
 * Sample statistics for the end-to-end benchmark. Header-only and
 * free of library dependencies so the self-test builds it alone.
 */

#ifndef PERFBENCH_STATS_HPP
#define PERFBENCH_STATS_HPP

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/** Samples that must lie strictly beyond a reported percentile. */
inline constexpr std::size_t kMinBeyond = 10;

/**
 * The @p q quantile (0 <= q <= 1) of @p samples by the nearest-rank
 * rule: the smallest sample with at least q * n samples at or below
 * it. Returns nothing for an empty sample.
 */
inline std::optional<double>
quantile(std::vector<double> samples, double q)
{
    if (samples.empty()) {
        return std::nullopt;
    }
    std::sort(samples.begin(), samples.end());
    const double n = static_cast<double>(samples.size());
    std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
    rank = std::clamp<std::size_t>(rank, 1, samples.size());
    return samples[rank - 1];
}

/** Median (nearest rank); nothing for an empty sample. */
inline std::optional<double>
median(const std::vector<double> &samples)
{
    return quantile(samples, 0.5);
}

/**
 * A tail percentile only when the sample supports it: at least
 * kMinBeyond samples must lie beyond the percentile's rank, i.e.
 * n * (1 - q) >= kMinBeyond. Otherwise the percentile is omitted,
 * never estimated.
 */
inline std::optional<double>
tailPercentile(const std::vector<double> &samples, double q)
{
    const double beyond =
        static_cast<double>(samples.size()) * (1.0 - q);
    if (beyond + 1e-9 < static_cast<double>(kMinBeyond)) {
        return std::nullopt;
    }
    return quantile(samples, q);
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HPP
