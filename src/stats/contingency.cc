/**
 * @file
 * Contingency-table construction and independence testing (NR cntab
 * with the Yates continuity correction for 2x2 tables).
 */

#include "stats/contingency.hh"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/logging.hh"

namespace qsa::stats
{

ContingencyTable
ContingencyTable::fromPairs(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>> &pairs)
{
    std::set<std::uint64_t> row_set, col_set;
    for (const auto &[a, b] : pairs) {
        row_set.insert(a);
        col_set.insert(b);
    }

    ContingencyTable t;
    t.rowLabels.assign(row_set.begin(), row_set.end());
    t.colLabels.assign(col_set.begin(), col_set.end());
    t.cells.assign(t.rowLabels.size(),
                   std::vector<double>(t.colLabels.size(), 0.0));

    auto index_of = [](const std::vector<std::uint64_t> &labels,
                       std::uint64_t v) {
        return std::lower_bound(labels.begin(), labels.end(), v) -
               labels.begin();
    };
    for (const auto &[a, b] : pairs)
        t.cells[index_of(t.rowLabels, a)][index_of(t.colLabels, b)] += 1.0;
    return t;
}

ContingencyTable
ContingencyTable::fromCounts(const std::vector<std::uint64_t> &row_labels,
                             const std::vector<std::uint64_t> &col_labels,
                             const std::vector<std::vector<double>> &counts)
{
    fatal_if(counts.size() != row_labels.size(),
             "row label/count mismatch");
    for (const auto &row : counts)
        fatal_if(row.size() != col_labels.size(),
                 "column label/count mismatch");

    ContingencyTable t;
    t.rowLabels = row_labels;
    t.colLabels = col_labels;
    t.cells = counts;
    return t;
}

double
ContingencyTable::total() const
{
    double n = 0.0;
    for (const auto &row : cells)
        for (double c : row)
            n += c;
    return n;
}

double
ContingencyTable::at(std::size_t r, std::size_t c) const
{
    fatal_if(r >= numRows() || c >= numCols(),
             "contingency cell out of range");
    return cells[r][c];
}

namespace
{

/**
 * Core of both independence tests. Empty rows/columns are excluded from
 * the degrees of freedom, following NR cntab.
 */
template <typename CellTerm>
IndependenceResult
independenceCore(const ContingencyTable &table, bool yates_for_2x2,
                 CellTerm term)
{
    const std::size_t nr = table.numRows();
    const std::size_t nc = table.numCols();

    std::vector<double> row_sum(nr, 0.0), col_sum(nc, 0.0);
    double n = 0.0;
    for (std::size_t r = 0; r < nr; ++r) {
        for (std::size_t c = 0; c < nc; ++c) {
            const double v = table.at(r, c);
            row_sum[r] += v;
            col_sum[c] += v;
            n += v;
        }
    }

    IndependenceResult res;
    fatal_if(n <= 0.0, "independence test on an empty table");

    const auto nnr = std::count_if(row_sum.begin(), row_sum.end(),
                                   [](double s) { return s > 0.0; });
    const auto nnc = std::count_if(col_sum.begin(), col_sum.end(),
                                   [](double s) { return s > 0.0; });

    if (nnr <= 1 || nnc <= 1) {
        // One of the variables is constant: no dependence information.
        res.degenerate = true;
        res.df = 0.0;
        res.pValue = 1.0;
        return res;
    }

    res.df = static_cast<double>((nnr - 1) * (nnc - 1));
    const bool yates = yates_for_2x2 && nnr == 2 && nnc == 2;
    res.yatesApplied = yates;

    double stat = 0.0;
    for (std::size_t r = 0; r < nr; ++r) {
        if (row_sum[r] == 0.0)
            continue;
        for (std::size_t c = 0; c < nc; ++c) {
            if (col_sum[c] == 0.0)
                continue;
            const double expected = row_sum[r] * col_sum[c] / n;
            stat += term(table.at(r, c), expected, yates);
        }
    }

    res.statistic = stat;
    res.pValue = chiSquareSf(stat, res.df);
    res.cramersV = std::sqrt(
        stat / (n * std::min<double>(nnr - 1, nnc - 1)));
    res.cramersV = std::min(res.cramersV, 1.0);
    res.contingencyC = std::sqrt(stat / (stat + n));
    return res;
}

} // anonymous namespace

IndependenceResult
independenceTest(const ContingencyTable &table, bool yates_for_2x2)
{
    return independenceCore(
        table, yates_for_2x2,
        [](double o, double e, bool yates) {
            double d = std::fabs(o - e);
            if (yates)
                d = std::max(0.0, d - 0.5);
            return d * d / e;
        });
}

IndependenceResult
independenceGTest(const ContingencyTable &table)
{
    return independenceCore(
        table, false,
        [](double o, double e, bool) {
            if (o == 0.0)
                return 0.0;
            return 2.0 * o * std::log(o / e);
        });
}

} // namespace qsa::stats
