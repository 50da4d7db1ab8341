/**
 * @file
 * Bug-localization cost: probes-per-localization and wall-clock for
 * the adaptive binary search versus the exhaustive linear scan, over
 * representative taxonomy defects (a flipped rotation deep in a
 * decomposed adder, a misrouted control in a modular multiplier, and
 * a wrong modular inverse in a controlled U_a).
 *
 * Run with --benchmark_counters_tabular=true; the "probes" and
 * "measurements" counters are the headline numbers — the adaptive
 * search needs O(log n) probes where the scan needs one per
 * instruction boundary. --json <path> writes the machine-readable
 * BENCH_*.json record.
 */

#include <cmath>

#include <benchmark/benchmark.h>

#include "benchjson_main.hh"
#include "qsa/qsa.hh"

namespace
{

using namespace qsa;
using circuit::Circuit;

/** Table 1 flipped-rotation defect inside a decomposed adder. */
std::pair<Circuit, Circuit>
flippedAdderPair()
{
    std::pair<Circuit, Circuit> pair;
    Circuit *circs[] = {&pair.first, &pair.second};
    for (Circuit *circ : circs) {
        const bool buggy = circ == &pair.first;
        const auto ctrl = circ->addRegister("ctrl", 1);
        const auto b = circ->addRegister("b", 5);
        circ->prepRegister(ctrl, 1);
        circ->prepRegister(b, 12);
        algo::qft(*circ, b);
        bugs::phiAddDecomposed(
            *circ, b, 13, ctrl[0],
            buggy ? bugs::Table1Variant::IncorrectFlipped
                  : bugs::Table1Variant::CorrectDropA);
        algo::iqft(*circ, b);
    }
    return pair;
}

/** Section 4.4 misrouted control in a controlled modular multiplier. */
std::pair<Circuit, Circuit>
misroutedPair()
{
    std::pair<Circuit, Circuit> pair;
    Circuit *circs[] = {&pair.first, &pair.second};
    for (Circuit *circ : circs) {
        const bool buggy = circ == &pair.first;
        const auto ctrl = circ->addRegister("ctrl", 1);
        const auto x = circ->addRegister("x", 3);
        const auto b = circ->addRegister("b", 4);
        const auto anc = circ->addRegister("anc", 1);
        circ->prepRegister(ctrl, 1);
        circ->prepRegister(x, 6);
        circ->prepRegister(b, 5);
        circ->prepRegister(anc, 0);
        circ->h(ctrl[0]);
        if (buggy)
            bugs::cModMulMisrouted(*circ, ctrl[0], x, b, 3, 7, anc[0]);
        else
            algo::cModMul(*circ, ctrl[0], x, b, 3, 7, anc[0]);
    }
    return pair;
}

/** Table 3 wrong modular inverse inside a controlled U_a. */
std::pair<Circuit, Circuit>
wrongInversePair()
{
    std::pair<Circuit, Circuit> pair;
    Circuit *circs[] = {&pair.first, &pair.second};
    for (Circuit *circ : circs) {
        const bool buggy = circ == &pair.first;
        const auto ctrl = circ->addRegister("ctrl", 1);
        const auto x = circ->addRegister("x", 3);
        const auto b = circ->addRegister("b", 4);
        const auto anc = circ->addRegister("anc", 1);
        circ->prepRegister(ctrl, 1);
        circ->prepRegister(x, 6);
        circ->prepRegister(b, 0);
        circ->prepRegister(anc, 0);
        circ->h(ctrl[0]);
        algo::cUa(*circ, ctrl[0], x, b, 3, buggy ? 4 : 5, 7, anc[0]);
    }
    return pair;
}

/**
 * Measured teleportation with a broken verify mirror *after* the
 * Bell measurement and its conditioned corrections — localizable
 * only by the Resimulate probe family.
 */
std::pair<Circuit, Circuit>
measuredTeleportPair()
{
    constexpr double theta = 1.1;
    constexpr double phi = 0.6;
    std::pair<Circuit, Circuit> pair;
    Circuit *circs[] = {&pair.first, &pair.second};
    for (Circuit *circ : circs) {
        const bool buggy = circ == &pair.first;
        const auto msg = circ->addRegister("msg", 1);
        const auto half = circ->addRegister("half", 1);
        const auto recv = circ->addRegister("recv", 1);
        circ->prepZ(msg[0], 0);
        circ->prepZ(half[0], 0);
        circ->prepZ(recv[0], 0);
        circ->ry(msg[0], theta);
        circ->rz(msg[0], phi);
        circ->h(half[0]);
        circ->cnot(half[0], recv[0]);
        circ->cnot(msg[0], half[0]);
        circ->h(msg[0]);
        circ->measureQubits({half[0]}, "m_x");
        circ->measureQubits({msg[0]}, "m_z");
        circ->x(recv[0]);
        circ->conditionLast("m_x", 1);
        circ->z(recv[0]);
        circ->conditionLast("m_z", 1);
        circ->rz(recv[0], -phi);
        circ->ry(recv[0], buggy ? theta : -theta);
    }
    return pair;
}

/**
 * Measured teleportation with a conditioned-Z-*frame* defect (the
 * conditioned Z correction applies S instead): a pure relative-phase
 * divergence invisible to every computational-basis probe between
 * its site and the verify rotation — the swap-test family's
 * flagship.
 */
std::pair<Circuit, Circuit>
zFrameTeleportPair()
{
    constexpr double theta = 1.1;
    constexpr double phi = 0.6;
    std::pair<Circuit, Circuit> pair;
    Circuit *circs[] = {&pair.first, &pair.second};
    for (Circuit *circ : circs) {
        const bool buggy = circ == &pair.first;
        const auto msg = circ->addRegister("msg", 1);
        const auto half = circ->addRegister("half", 1);
        const auto recv = circ->addRegister("recv", 1);
        circ->prepZ(msg[0], 0);
        circ->prepZ(half[0], 0);
        circ->prepZ(recv[0], 0);
        circ->ry(msg[0], theta);
        circ->rz(msg[0], phi);
        circ->h(half[0]);
        circ->cnot(half[0], recv[0]);
        circ->cnot(msg[0], half[0]);
        circ->h(msg[0]);
        circ->measureQubits({half[0]}, "m_x");
        circ->measureQubits({msg[0]}, "m_z");
        circ->x(recv[0]);
        circ->conditionLast("m_x", 1);
        if (buggy)
            circ->phase(recv[0], M_PI / 2);
        else
            circ->z(recv[0]);
        circ->conditionLast("m_z", 1);
        circ->rz(recv[0], -phi);
        circ->ry(recv[0], -theta);
    }
    return pair;
}

/**
 * Wide-measurement program: qubit 0 recycled through 13 measurement
 * rounds (2^13 = 8192 outcome histories, past the exact oracle's
 * 4096-branch cap) while qubit 1 carries a persistent prep defect
 * (X where the reference uses H). Exact reference derivation is
 * impossible here — this fixture is the sampled oracle's headline.
 */
std::pair<Circuit, Circuit>
wideMeasurePair()
{
    std::pair<Circuit, Circuit> pair;
    Circuit *circs[] = {&pair.first, &pair.second};
    for (Circuit *circ : circs) {
        const bool buggy = circ == &pair.first;
        const auto work = circ->addRegister("work", 1);
        const auto carry = circ->addRegister("carry", 1);
        circ->h(work[0]);
        circ->measureQubits({work[0]}, "m_r0");
        if (buggy)
            circ->x(carry[0]);
        else
            circ->h(carry[0]);
        for (int round = 1; round < 13; ++round) {
            circ->h(work[0]);
            circ->measureQubits({work[0]},
                                "m_r" + std::to_string(round));
        }
    }
    return pair;
}

/**
 * Table 3's wrong modular inverse (12 for 13) in semiclassical Shor:
 * 2,808 instructions whose recycled control qubit is measured each
 * round, so every probe past the first measurement is a dual mirror
 * probe whose long tail one Resimulate walk reads out at both of its
 * breakpoints, and its lazy oracles stop at their boundary.
 */
std::pair<Circuit, Circuit>
semiclassicalWrongInversePair()
{
    algo::ShorConfig good;
    algo::ShorConfig bad;
    bad.pairs = algo::shorClassicalInputs(7, 15, 3);
    bad.pairs[0].second = 12;
    return {algo::buildSemiclassicalShorProgram(bad).circuit,
            algo::buildSemiclassicalShorProgram(good).circuit};
}

std::pair<Circuit, Circuit>
fixturePair(int which)
{
    switch (which) {
      case 0: return flippedAdderPair();
      case 1: return misroutedPair();
      case 2: return wrongInversePair();
      case 3: return measuredTeleportPair();
      case 4: return zFrameTeleportPair();
      case 5: return wideMeasurePair();
      default: return semiclassicalWrongInversePair();
    }
}

const char *
fixtureName(int which)
{
    switch (which) {
      case 0: return "flipped-adder";
      case 1: return "misrouted-control";
      case 2: return "wrong-inverse";
      case 3: return "measured-teleport";
      case 4: return "zframe-teleport";
      case 5: return "wide-measure";
      default: return "semiclassical-wrong-inverse";
    }
}

/** A fixture's ensemble sizes: 64 escalating to 1,024, except the
 *  semiclassical search, which runs on 32 escalating to 256 as the
 *  paper-session workload and its pinned test do. */
void
setEnsembleSizes(locate::LocateConfig &cfg, int which)
{
    const bool semiclassical = which == 6;
    cfg.ensembleSize = semiclassical ? 32 : 64;
    cfg.maxEnsembleSize = semiclassical ? 256 : 1024;
}

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
 * Replay one localization per benchmark configuration with the
 * registry freshly reset, so the "metrics" snapshot in the --json
 * artifact counts a fixed workload — locate.probes, the cache
 * hit/miss totals, and friends are then independent of how many
 * iterations the timing loops above decided to run, and the CI
 * regression gate can compare them across commits exactly.
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
    once(4, Strategy::AdaptiveBinarySearch, EnsembleMode::Resimulate,
         ProbeFamily::SwapTest, "recv");
    once(4, Strategy::LinearScan, EnsembleMode::Resimulate,
         ProbeFamily::SwapTest, "recv");
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
