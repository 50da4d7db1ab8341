/**
 * @file
 * Bug-localization cost: probes-per-localization and wall-clock for
 * the adaptive binary search versus the exhaustive linear scan, over
 * representative taxonomy defects (a flipped rotation deep in a
 * decomposed adder, a misrouted control in a modular multiplier, and
 * a wrong modular inverse in a controlled U_a, alone and inside the
 * full Shor program).
 *
 * Run with --benchmark_counters_tabular=true; the "probes" and
 * "measurements" counters are the headline numbers — the adaptive
 * search needs O(log n) probes where the scan needs one per
 * instruction boundary. --json <path> writes the machine-readable
 * BENCH_*.json record.
 */

#include <benchmark/benchmark.h>

#include "benchjson_main.hh"
#include "locate_fixtures.hh"
#include "qsa/qsa.hh"

namespace
{

using namespace qsa;
using namespace qsa::locatefix;

void
runLocate(benchmark::State &state, locate::Strategy strategy,
          assertions::EnsembleMode mode =
              assertions::EnsembleMode::SampleFinalState,
          locate::ProbeFamily family =
              locate::ProbeFamily::SegmentMirror,
          const char *reg_name = nullptr,
          locate::OracleMode oracle_mode = locate::OracleMode::Auto)
{
    const auto pair = fixturePair((int)state.range(0));

    locate::LocateConfig cfg;
    cfg.strategy = strategy;
    cfg.mode = mode;
    cfg.family = family;
    cfg.oracleMode = oracle_mode;
    setEnsembleSizes(cfg, (int)state.range(0));
    const locate::BugLocator locator(pair.first, pair.second, cfg);

    std::size_t probes = 0;
    std::size_t measurements = 0;
    std::size_t pruned = 0;
    bool found = true;
    for (auto _ : state) {
        const auto report =
            locator.locate(reg_name == nullptr
                               ? locate::Scope()
                               : locate::Scope(pair.first.reg(reg_name)));
        probes = report.probes.size();
        measurements = report.totalMeasurements;
        pruned = report.prunedBoundaries;
        found = found && report.bugFound;
        benchmark::DoNotOptimize(report);
    }

    state.SetLabel(std::string(fixtureName((int)state.range(0))) +
                   (found ? "" : " [NOT FOUND]"));
    state.counters["probes"] = (double)probes;
    state.counters["measurements"] = (double)measurements;
    state.counters["boundaries"] = (double)pair.first.size();
    // Boundaries the analyze prefix-equivalence pre-pass certified
    // away before any ensemble ran (see locate.hh "Static pruning").
    state.counters["pruned"] = (double)pruned;
}

void
BM_LocateAdaptive(benchmark::State &state)
{
    runLocate(state, locate::Strategy::AdaptiveBinarySearch);
}
BENCHMARK(BM_LocateAdaptive)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

void
BM_LocateLinearScan(benchmark::State &state)
{
    runLocate(state, locate::Strategy::LinearScan);
}
BENCHMARK(BM_LocateLinearScan)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

// Resimulate-mode probes: the same unitary fixtures (cost of lifting
// the measurement clamp when nothing needs it — the runtime's cached
// deterministic head keeps it near the sampling path) plus the
// measurement-bearing teleport fixture only this mode can localize.
void
BM_LocateResimulate(benchmark::State &state)
{
    runLocate(state, locate::Strategy::AdaptiveBinarySearch,
              assertions::EnsembleMode::Resimulate);
}
BENCHMARK(BM_LocateResimulate)->Arg(0)->Arg(1)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMillisecond);

void
BM_LocateResimulateScan(benchmark::State &state)
{
    runLocate(state, locate::Strategy::LinearScan,
              assertions::EnsembleMode::Resimulate);
}
BENCHMARK(BM_LocateResimulateScan)->Arg(3)
    ->Unit(benchmark::kMillisecond);

// The paper's semiclassical Shor defect: dual mirror probes on a
// 2,800-instruction tail, the shape the one-walk dual probe and the
// boundary-bounded lazy oracles are for.
void
BM_LocateSemiclassical(benchmark::State &state)
{
    runLocate(state, locate::Strategy::AdaptiveBinarySearch,
              assertions::EnsembleMode::Resimulate);
}
BENCHMARK(BM_LocateSemiclassical)->Arg(6)
    ->Unit(benchmark::kMillisecond);

// The full Shor wrong inverse as the paper-session workload localizes
// it: SampleFinalState mirror probes, 64 escalating to 1,024 at pass
// threshold 0.30. Every probe is paired with the reference and reads
// the two prefix states' fidelity.
void
BM_LocateShor(benchmark::State &state)
{
    runLocate(state, locate::Strategy::AdaptiveBinarySearch);
}
BENCHMARK(BM_LocateShor)->Arg(7)->Unit(benchmark::kMillisecond);

// Phase-sensitive families on the conditioned-Z-frame teleport — the
// defect every computational-basis family brackets at the verify
// step instead of its site. Probes are register-scoped to the
// receiver; the swap-test scan is the exhaustive baseline the
// adaptive search must beat, and Auto pays the marginal search plus
// one decisive swap probe before escalating.
void
BM_LocateSwapTest(benchmark::State &state)
{
    runLocate(state, locate::Strategy::AdaptiveBinarySearch,
              assertions::EnsembleMode::Resimulate,
              locate::ProbeFamily::SwapTest, "recv");
}
BENCHMARK(BM_LocateSwapTest)->Arg(4)->Unit(benchmark::kMillisecond);

void
BM_LocateSwapTestScan(benchmark::State &state)
{
    runLocate(state, locate::Strategy::LinearScan,
              assertions::EnsembleMode::Resimulate,
              locate::ProbeFamily::SwapTest, "recv");
}
BENCHMARK(BM_LocateSwapTestScan)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void
BM_LocateRotatedMarginal(benchmark::State &state)
{
    runLocate(state, locate::Strategy::AdaptiveBinarySearch,
              assertions::EnsembleMode::Resimulate,
              locate::ProbeFamily::RotatedMarginal, "recv");
}
BENCHMARK(BM_LocateRotatedMarginal)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void
BM_LocateAutoEscalation(benchmark::State &state)
{
    runLocate(state, locate::Strategy::AdaptiveBinarySearch,
              assertions::EnsembleMode::Resimulate,
              locate::ProbeFamily::Auto, "recv");
}
BENCHMARK(BM_LocateAutoEscalation)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// The sampled reference oracle on the wide-measurement fixture — the
// program whose exact mixture tracking overflows the branch cap, so
// Monte-Carlo marginal estimation is the only oracle that runs at
// all. The scan is the exhaustive baseline; the adaptive search's
// probe count is the number to watch.
void
BM_LocateSampledOracle(benchmark::State &state)
{
    runLocate(state, locate::Strategy::AdaptiveBinarySearch,
              assertions::EnsembleMode::Resimulate,
              locate::ProbeFamily::SegmentMirror, nullptr,
              locate::OracleMode::Sampled);
}
BENCHMARK(BM_LocateSampledOracle)->Arg(5)
    ->Unit(benchmark::kMillisecond);

void
BM_LocateSampledOracleScan(benchmark::State &state)
{
    runLocate(state, locate::Strategy::LinearScan,
              assertions::EnsembleMode::Resimulate,
              locate::ProbeFamily::SegmentMirror, nullptr,
              locate::OracleMode::Sampled);
}
BENCHMARK(BM_LocateSampledOracleScan)->Arg(5)
    ->Unit(benchmark::kMillisecond);

/**
 * Replay one localization per benchmark configuration, plus the
 * rotated-marginal and mixture-marginal scans of the zframe receiver
 * (so every family's scan path is gated), with the registry freshly
 * reset, so the "metrics" snapshot in the --json artifact counts a
 * fixed workload — locate.probes, the cache hit/miss totals, and
 * friends are then independent of how many iterations the timing
 * loops above decided to run, and the CI regression gate can compare
 * them across commits exactly.
 */
void
metricsEpilogue()
{
    obs::Registry::reset();
    const auto once = [](int which, locate::Strategy strategy,
                         assertions::EnsembleMode mode,
                         locate::ProbeFamily family,
                         const char *reg_name,
                         locate::OracleMode oracle_mode =
                             locate::OracleMode::Auto) {
        const auto pair = fixturePair(which);
        locate::LocateConfig cfg;
        cfg.strategy = strategy;
        cfg.mode = mode;
        cfg.family = family;
        cfg.oracleMode = oracle_mode;
        setEnsembleSizes(cfg, which);
        const locate::BugLocator locator(pair.first, pair.second,
                                         cfg);
        const auto report =
            locator.locate(reg_name == nullptr
                               ? locate::Scope()
                               : locate::Scope(pair.first.reg(reg_name)));
        benchmark::DoNotOptimize(report);
    };
    using assertions::EnsembleMode;
    using locate::ProbeFamily;
    using locate::Strategy;
    for (int which : {0, 1, 2}) {
        once(which, Strategy::AdaptiveBinarySearch,
             EnsembleMode::SampleFinalState,
             ProbeFamily::SegmentMirror, nullptr);
        once(which, Strategy::LinearScan,
             EnsembleMode::SampleFinalState,
             ProbeFamily::SegmentMirror, nullptr);
    }
    for (int which : {0, 1, 2, 3})
        once(which, Strategy::AdaptiveBinarySearch,
             EnsembleMode::Resimulate, ProbeFamily::SegmentMirror,
             nullptr);
    once(3, Strategy::LinearScan, EnsembleMode::Resimulate,
         ProbeFamily::SegmentMirror, nullptr);
    once(6, Strategy::AdaptiveBinarySearch, EnsembleMode::Resimulate,
         ProbeFamily::SegmentMirror, nullptr);
    once(7, Strategy::AdaptiveBinarySearch, EnsembleMode::SampleFinalState,
         ProbeFamily::SegmentMirror, nullptr);
    once(4, Strategy::AdaptiveBinarySearch, EnsembleMode::Resimulate,
         ProbeFamily::SwapTest, "recv");
    for (ProbeFamily family :
         {ProbeFamily::SwapTest, ProbeFamily::RotatedMarginal,
          ProbeFamily::MixtureMarginal}) {
        once(4, Strategy::LinearScan, EnsembleMode::Resimulate, family,
             "recv");
    }
    once(4, Strategy::AdaptiveBinarySearch, EnsembleMode::Resimulate,
         ProbeFamily::RotatedMarginal, "recv");
    once(4, Strategy::AdaptiveBinarySearch, EnsembleMode::Resimulate,
         ProbeFamily::Auto, "recv");
    once(5, Strategy::AdaptiveBinarySearch, EnsembleMode::Resimulate,
         ProbeFamily::SegmentMirror, nullptr,
         locate::OracleMode::Sampled);
    once(5, Strategy::LinearScan, EnsembleMode::Resimulate,
         ProbeFamily::SegmentMirror, nullptr,
         locate::OracleMode::Sampled);
}

} // anonymous namespace

QSA_BENCHJSON_MAIN_WITH_METRICS("bench_locate", metricsEpilogue);
