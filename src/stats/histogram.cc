/**
 * @file
 * Histogram helper implementations.
 */

#include "stats/histogram.hh"

#include "common/logging.hh"

namespace qsa::stats
{

std::map<std::uint64_t, std::uint64_t>
countOutcomes(const std::vector<std::uint64_t> &outcomes)
{
    std::map<std::uint64_t, std::uint64_t> counts;
    for (std::uint64_t v : outcomes)
        ++counts[v];
    return counts;
}

std::vector<double>
denseCounts(const std::vector<std::uint64_t> &outcomes,
            std::uint64_t domain)
{
    std::vector<double> counts(domain, 0.0);
    for (std::uint64_t v : outcomes) {
        fatal_if(v >= domain, "outcome ", v, " outside domain ", domain);
        counts[v] += 1.0;
    }
    return counts;
}

std::vector<double>
toFrequencies(const std::vector<double> &counts)
{
    double total = 0.0;
    for (double c : counts)
        total += c;

    std::vector<double> freq(counts.size(), 0.0);
    if (total <= 0.0)
        return freq;
    for (std::size_t i = 0; i < counts.size(); ++i)
        freq[i] = counts[i] / total;
    return freq;
}

} // namespace qsa::stats
