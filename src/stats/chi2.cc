/**
 * @file
 * Chi-square distribution and goodness-of-fit implementations.
 */

#include "stats/chi2.hh"

#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "stats/specfun.hh"

namespace qsa::stats
{

double
chiSquareCdf(double x, double df)
{
    fatal_if(df <= 0.0, "chiSquareCdf requires df > 0, got ", df);
    if (x <= 0.0)
        return 0.0;
    return gammaP(df / 2.0, x / 2.0);
}

double
chiSquareSf(double x, double df)
{
    fatal_if(df <= 0.0, "chiSquareSf requires df > 0, got ", df);
    if (x <= 0.0)
        return 1.0;
    if (std::isinf(x))
        return 0.0;
    return gammaQ(df / 2.0, x / 2.0);
}

double
chiSquareQuantile(double p, double df)
{
    fatal_if(p < 0.0 || p >= 1.0,
             "chiSquareQuantile requires p in [0, 1), got ", p);
    if (p == 0.0)
        return 0.0;

    // Bracket then bisect; the CDF is monotone.
    double lo = 0.0;
    double hi = df + 10.0;
    while (chiSquareCdf(hi, df) < p)
        hi *= 2.0;
    for (int i = 0; i < 200; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (chiSquareCdf(mid, df) < p)
            lo = mid;
        else
            hi = mid;
        if (hi - lo < 1e-12 * (1.0 + hi))
            break;
    }
    return 0.5 * (lo + hi);
}

namespace
{

/**
 * Shared skeleton for the one-sample tests: accumulates a per-bin
 * statistic with the zero-expected-bin conventions documented in the
 * header.
 */
template <typename BinTerm>
Chi2Result
binnedTest(const std::vector<double> &observed,
           const std::vector<double> &expected, int constraints,
           BinTerm term)
{
    fatal_if(observed.size() != expected.size(),
             "bin count mismatch: ", observed.size(), " observed vs ",
             expected.size(), " expected");

    Chi2Result res;
    double stat = 0.0;
    std::size_t used = 0;
    for (std::size_t i = 0; i < observed.size(); ++i) {
        const double o = observed[i];
        const double e = expected[i];
        fatal_if(o < 0.0 || e < 0.0, "negative bin count");
        if (e == 0.0 && o == 0.0)
            continue;
        if (e == 0.0) {
            res.impossibleOutcome = true;
            continue;
        }
        stat += term(o, e);
        ++used;
    }

    res.usedBins = used;
    res.df = static_cast<double>(used) - constraints;

    if (res.impossibleOutcome) {
        res.statistic = std::numeric_limits<double>::infinity();
        res.pValue = 0.0;
        return res;
    }

    res.statistic = stat;
    if (res.df <= 0.0) {
        // Degenerate test (e.g. point-mass hypothesis with every
        // observation on the expected value): nothing left to reject.
        res.df = 0.0;
        res.pValue = stat <= 1e-9 ? 1.0 : 0.0;
        return res;
    }

    res.pValue = chiSquareSf(stat, res.df);
    return res;
}

} // anonymous namespace

Chi2Result
chiSquareGof(const std::vector<double> &observed,
             const std::vector<double> &expected, int constraints)
{
    return binnedTest(observed, expected, constraints,
                      [](double o, double e) {
                          const double d = o - e;
                          return d * d / e;
                      });
}

Chi2Result
gTestGof(const std::vector<double> &observed,
         const std::vector<double> &expected, int constraints)
{
    return binnedTest(observed, expected, constraints,
                      [](double o, double e) {
                          if (o == 0.0)
                              return 0.0;
                          return 2.0 * o * std::log(o / e);
                      });
}

Chi2Result
chiSquareTwoSample(const std::vector<double> &sample1,
                   const std::vector<double> &sample2, int constraints)
{
    fatal_if(sample1.size() != sample2.size(),
             "bin count mismatch between samples");

    double total_r = 0.0;
    double total_s = 0.0;
    for (std::size_t i = 0; i < sample1.size(); ++i) {
        fatal_if(sample1[i] < 0.0 || sample2[i] < 0.0,
                 "negative bin count");
        total_r += sample1[i];
        total_s += sample2[i];
    }
    fatal_if(total_r == 0.0 || total_s == 0.0,
             "two-sample test needs a positive total in each sample");

    // NR §14.3 chstwo with unequal sample sizes: each bin contributes
    // (sqrt(S/R) r - sqrt(R/S) s)^2 / (r + s). When R == S both
    // ratios are exactly 1.0 and sqrt(1.0) is exact, so equal-N
    // results stay bit-identical to the unscaled formula.
    const double scale_r = std::sqrt(total_s / total_r);
    const double scale_s = std::sqrt(total_r / total_s);

    Chi2Result res;
    double stat = 0.0;
    std::size_t used = 0;
    for (std::size_t i = 0; i < sample1.size(); ++i) {
        const double r = sample1[i];
        const double s = sample2[i];
        if (r == 0.0 && s == 0.0)
            continue;
        const double d = scale_r * r - scale_s * s;
        stat += d * d / (r + s);
        ++used;
    }

    res.statistic = stat;
    res.usedBins = used;
    res.df = static_cast<double>(used) - constraints;
    if (res.df <= 0.0) {
        res.df = 0.0;
        res.pValue = stat <= 1e-9 ? 1.0 : 0.0;
    } else {
        res.pValue = chiSquareSf(stat, res.df);
    }
    return res;
}

std::vector<double>
uniformExpected(std::size_t num_bins, double total)
{
    fatal_if(num_bins == 0, "uniformExpected needs at least one bin");
    return std::vector<double>(num_bins, total / num_bins);
}

std::vector<double>
pointMassExpected(std::size_t num_bins, std::uint64_t value, double total)
{
    fatal_if(value >= num_bins, "point-mass value ", value,
             " outside domain of ", num_bins, " bins");
    std::vector<double> e(num_bins, 0.0);
    e[value] = total;
    return e;
}

} // namespace qsa::stats
