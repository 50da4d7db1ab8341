/**
 * @file
 * Lanczos log-gamma and incomplete gamma implementations following the
 * classical series / continued-fraction split (Numerical Recipes ch. 6).
 */

#include "stats/specfun.hh"

#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace qsa::stats
{

double
lnGamma(double x)
{
    fatal_if(x <= 0.0, "lnGamma requires x > 0, got ", x);

    // Lanczos coefficients (g = 5, n = 6), as tabulated in NR.
    static const double cof[6] = {
        76.18009172947146, -86.50532032941677, 24.01409824083091,
        -1.231739572450155, 0.1208650973866179e-2, -0.5395239384953e-5,
    };

    double y = x;
    double tmp = x + 5.5;
    tmp -= (x + 0.5) * std::log(tmp);
    double ser = 1.000000000190015;
    for (double c : cof)
        ser += c / ++y;
    return -tmp + std::log(2.5066282746310005 * ser / x);
}

namespace
{

/** Series representation of P(a, x), valid (fast) for x < a + 1. */
double
gammaPSeries(double a, double x)
{
    const int max_iter = 500;
    const double eps = std::numeric_limits<double>::epsilon();

    double ap = a;
    double sum = 1.0 / a;
    double del = sum;
    for (int n = 0; n < max_iter; ++n) {
        ++ap;
        del *= x / ap;
        sum += del;
        if (std::fabs(del) < std::fabs(sum) * eps)
            break;
    }
    return sum * std::exp(-x + a * std::log(x) - lnGamma(a));
}

/** Continued-fraction representation of Q(a, x), for x >= a + 1. */
double
gammaQContinuedFraction(double a, double x)
{
    const int max_iter = 500;
    const double eps = std::numeric_limits<double>::epsilon();
    const double fpmin = std::numeric_limits<double>::min() / eps;

    // Modified Lentz's method.
    double b = x + 1.0 - a;
    double c = 1.0 / fpmin;
    double d = 1.0 / b;
    double h = d;
    for (int i = 1; i <= max_iter; ++i) {
        const double an = -1.0 * i * (i - a);
        b += 2.0;
        d = an * d + b;
        if (std::fabs(d) < fpmin)
            d = fpmin;
        c = b + an / c;
        if (std::fabs(c) < fpmin)
            c = fpmin;
        d = 1.0 / d;
        const double del = d * c;
        h *= del;
        if (std::fabs(del - 1.0) < eps)
            break;
    }
    return std::exp(-x + a * std::log(x) - lnGamma(a)) * h;
}

} // anonymous namespace

double
gammaP(double a, double x)
{
    fatal_if(a <= 0.0, "gammaP requires a > 0, got ", a);
    fatal_if(x < 0.0, "gammaP requires x >= 0, got ", x);

    if (x == 0.0)
        return 0.0;
    if (x < a + 1.0)
        return gammaPSeries(a, x);
    return 1.0 - gammaQContinuedFraction(a, x);
}

double
gammaQ(double a, double x)
{
    fatal_if(a <= 0.0, "gammaQ requires a > 0, got ", a);
    fatal_if(x < 0.0, "gammaQ requires x >= 0, got ", x);

    if (x == 0.0)
        return 1.0;
    if (x < a + 1.0)
        return 1.0 - gammaPSeries(a, x);
    return gammaQContinuedFraction(a, x);
}

double
errorFunction(double x)
{
    const double p = gammaP(0.5, x * x);
    return x >= 0.0 ? p : -p;
}

double
errorFunctionC(double x)
{
    return x >= 0.0 ? gammaQ(0.5, x * x) : 1.0 + gammaP(0.5, x * x);
}

} // namespace qsa::stats
