#pragma once

#include <span>
#include <vector>

namespace atm::ts {

/// Arithmetic mean; 0 for an empty span.
double mean(std::span<const double> xs);

/// Population variance (divides by n); 0 for spans shorter than 1.
double variance(std::span<const double> xs);

/// Population standard deviation.
double stddev(std::span<const double> xs);

/// Sample covariance with population normalization (divides by n).
/// Both spans must have equal length; returns 0 if either is empty.
double covariance(std::span<const double> xs, std::span<const double> ys);

/// Pearson's correlation coefficient between two equal-length spans.
///
/// This is the spatial-dependency measure used throughout Section II of the
/// paper (intra-CPU, intra-RAM, inter-all and inter-pair correlations).
/// Returns 0 when either span is constant (undefined correlation).
double pearson(std::span<const double> xs, std::span<const double> ys);

/// Linear-interpolated empirical quantile, q in [0, 1].
/// q=0 -> min, q=0.5 -> median, q=1 -> max. 0 for an empty span.
double quantile(std::span<const double> xs, double q);

/// Median (quantile at 0.5).
double median(std::span<const double> xs);

/// Five-number-plus summary used by the paper's box plots
/// (Fig. 6/7 show 25th/50th/75th percentiles, mean, and extremes).
struct Summary {
    double min = 0.0;
    double p25 = 0.0;
    double median = 0.0;
    double p75 = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double stddev = 0.0;
    std::size_t count = 0;
};
Summary summarize(std::span<const double> xs);

/// Mean absolute percentage error between actual and fitted values, as a
/// fraction (0.20 == 20%). Matches the paper's footnote-3 definition
/// APE = |Actual - Fitting| / Actual, averaged over samples; samples whose
/// actual value is below `eps` are skipped to avoid division blow-up.
double mean_absolute_percentage_error(std::span<const double> actual,
                                      std::span<const double> fitted,
                                      double eps = 1e-9);

}  // namespace atm::ts
