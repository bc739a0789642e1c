/**
 * @file
 * Order statistics for the benchmark's timings. Percentiles use linear
 * interpolation between closest ranks (the "inclusive" R-7 method, the
 * same as numpy's default), so p50 of an even-sized sample is the mean
 * of the two middle values.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstddef>
#include <vector>

namespace perfbench {

/**
 * The @p q quantile (0 <= q <= 1) of @p values; 0 for an empty
 * sample. Takes a copy because it sorts.
 */
double quantile(std::vector<double> values, double q);

/** quantile(values, 0.5). */
double median(const std::vector<double> &values);

/** Arithmetic mean; 0 for an empty sample. */
double mean(const std::vector<double> &values);

/** Number of samples strictly above the @p q quantile. */
std::size_t countAbove(const std::vector<double> &values, double q);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
