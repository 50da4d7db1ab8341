/**
 * @file
 * Tensor-product swap-test tests: simulating the suspect and
 * embedded-reference halves of a swap probe separately and combining
 * only at the ancilla-controlled-SWAP comparator must reproduce the
 * monolithic execution — same seeded overlap Bernoulli histograms —
 * and the staged swap probes must bracket a phase defect, while
 * cutting per-trial amplitude traffic from 2^(2n+1) toward 2^n.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "assertions/checker.hh"
#include "circuit/circuit.hh"
#include "locate/locate.hh"
#include "obs/obs.hh"

namespace
{

using namespace qsa;
using qsa::circuit::Circuit;
using qsa::circuit::QubitRegister;
using qsa::locate::BugLocator;
using qsa::locate::LocateConfig;
using qsa::locate::LocalizationReport;
using qsa::locate::ProbeFamily;
using qsa::locate::Strategy;

// --- Engine-level identity on a hand-built swap probe ------------------------

/**
 * The swap-probe shape the SwapProber emits: a suspect-like block on
 * qubits [0, n), a reference-like block on [n, 2n), and the
 * ancilla-controlled-SWAP comparator on everything. The two halves
 * never touch across the split before the comparator, which is what
 * makes the program tensor-splittable at n.
 */
Circuit
probeShapedProgram(unsigned n, bool phase_defect)
{
    Circuit circ(0);
    const auto low = circ.addRegister("low", n);
    const auto high = circ.addRegister("high", n);
    const auto anc = circ.addRegister("anc", 1);

    // Each half carries a mid-circuit measurement, so Resimulate
    // cannot absorb it into a deterministic head: the gates after it
    // re-run per trial — on a 2^n half when staged, on the full
    // 2^(2n+1) space when monolithic.
    const auto half = [&](const QubitRegister &r, bool defect,
                          const std::string &label) {
        for (unsigned q = 0; q < n; ++q)
            circ.h(r.qubit(q));
        circ.measureQubits({r.qubit(0)}, label);
        for (unsigned layer = 0; layer < 2; ++layer) {
            for (unsigned q = 0; q + 1 < n; ++q)
                circ.cnot(r.qubit(q), r.qubit(q + 1));
            for (unsigned q = 0; q < n; ++q)
                circ.t(r.qubit(q));
            circ.h(r.qubit(1));
        }
        if (defect)
            circ.s(r.qubit(1));
        else
            circ.t(r.qubit(1));
    };
    half(low, false, "m_low");
    half(high, phase_defect, "m_high");

    const unsigned a = anc.qubit(0);
    circ.h(a);
    for (unsigned q = 0; q < n; ++q)
        circ.cswap(a, low.qubit(q), high.qubit(q));
    circ.h(a);
    circ.breakpoint("cmp");
    return circ;
}

assertions::CheckConfig
splitConfig(unsigned tensor_split, unsigned threads,
            assertions::EnsembleMode mode)
{
    assertions::CheckConfig cfg;
    cfg.ensembleSize = 256;
    cfg.seed = 0x7e4501;
    cfg.numThreads = threads;
    cfg.mode = mode;
    cfg.tensorSplit = tensor_split;
    return cfg;
}

assertions::AssertionSpec
ancillaSpec(const Circuit &circ)
{
    assertions::AssertionSpec spec;
    spec.kind = assertions::AssertionKind::Superposition;
    spec.breakpoint = "cmp";
    spec.regA = circ.reg("anc");
    return spec;
}

/**
 * The staged halves round differently from the monolithic product
 * state, but the ancilla's Bernoulli parameter is far from every
 * seeded draw, so the overlap histograms must be exactly equal in
 * both modes — and bit-identical across thread counts regardless.
 */
void
expectSameAncillaHistograms(bool phase_defect)
{
    const unsigned n = 3;
    const Circuit circ = probeShapedProgram(n, phase_defect);
    const auto spec = ancillaSpec(circ);

    for (const auto mode :
         {assertions::EnsembleMode::SampleFinalState,
          assertions::EnsembleMode::Resimulate}) {
        std::map<std::uint64_t, std::uint64_t> reference;
        bool have_reference = false;
        for (const unsigned split : {0u, n}) {
            for (const unsigned threads : {1u, 4u, 0u}) {
                const assertions::AssertionChecker checker(
                    circ, splitConfig(split, threads, mode));
                const auto outcome = checker.check(spec);
                if (!have_reference) {
                    reference = outcome.countsA;
                    have_reference = true;
                    continue;
                }
                EXPECT_EQ(outcome.countsA, reference)
                    << "defect=" << phase_defect
                    << " split=" << split << " threads=" << threads;
            }
        }
        // The overlap deficit must actually register on the ancilla.
        // Without the defect only Resimulate can show it (the halves'
        // mid-circuit collapses differ across trials; SampleFinalState
        // follows a single trajectory whose collapses may coincide).
        const auto ones = reference.count(1) ? reference.at(1) : 0;
        if (phase_defect ||
            mode == assertions::EnsembleMode::Resimulate) {
            EXPECT_GT(ones, 0u) << "mode " << (int)mode;
        }
    }
}

TEST(TensorSplitEngine, IdenticalHalvesSameHistograms)
{
    expectSameAncillaHistograms(false);
}

TEST(TensorSplitEngine, PhaseDefectSameHistograms)
{
    expectSameAncillaHistograms(true);
}

#if QSA_OBS_ENABLED

TEST(TensorSplitEngine, StagedTrialsCutAmpTouches)
{
    const unsigned n = 4;
    const Circuit circ = probeShapedProgram(n, true);
    const auto spec = ancillaSpec(circ);

    const auto touches = [&](unsigned split) {
        obs::Registry::reset();
        const assertions::AssertionChecker checker(
            circ,
            splitConfig(split, 1,
                        assertions::EnsembleMode::Resimulate));
        (void)checker.check(spec);
        for (const auto &[name, value] : obs::Registry::snapshot())
            if (name == "sim.amp_touches")
                return value;
        return (std::int64_t)0;
    };

    const auto monolithic = touches(0);
    const auto staged = touches(n);
    ASSERT_GT(monolithic, 0);
    ASSERT_GT(staged, 0);
    // Pre-comparator gates run on 2^n-amplitude halves instead of the
    // full 2^(2n+1) space; the headline claim is >= 2x overall.
    EXPECT_LT(2 * staged, monolithic)
        << "staged=" << staged << " monolithic=" << monolithic;
}

#endif // QSA_OBS_ENABLED

// --- BugLocator bracket parity on a phase-blind fixture ----------------------

/** Suspect/reference pair whose only divergence is a relative phase. */
struct Pair
{
    Circuit suspect{0};
    Circuit reference{0};
};

/** Instruction index of the S-for-Z phase defect below. */
constexpr std::size_t kPhaseDefect = 7;

Pair
phaseDefectPair()
{
    Pair pair;
    for (Circuit *circ : {&pair.suspect, &pair.reference}) {
        const bool buggy = circ == &pair.suspect;
        const auto q = circ->addRegister("q", 3);
        circ->h(0);
        circ->h(1);
        circ->h(2);
        circ->cnot(0, 1);
        circ->t(0);
        circ->cnot(1, 2);
        circ->s(2);
        if (buggy)
            circ->s(1); // defect: S where the reference applies Z
        else
            circ->z(1);
        circ->cnot(0, 2);
        circ->h(1);
        circ->t(2);
        circ->h(0);
        (void)q;
    }
    return pair;
}

LocateConfig
swapConfig(Strategy strategy = Strategy::AdaptiveBinarySearch)
{
    LocateConfig cfg;
    cfg.family = ProbeFamily::SwapTest;
    cfg.strategy = strategy;
    cfg.ensembleSize = 64;
    cfg.maxEnsembleSize = 1024;
    return cfg;
}

void
expectSameBrackets(const LocalizationReport &a,
                   const LocalizationReport &b)
{
    EXPECT_EQ(a.lastPassing, b.lastPassing);
    EXPECT_EQ(a.firstFailing, b.firstFailing);
    ASSERT_EQ(a.probes.size(), b.probes.size());
    for (std::size_t i = 0; i < a.probes.size(); ++i) {
        EXPECT_EQ(a.probes[i].boundary, b.probes[i].boundary);
        EXPECT_EQ(a.probes[i].ensembleSize, b.probes[i].ensembleSize);
        EXPECT_EQ(a.probes[i].failed, b.probes[i].failed);
    }
}

TEST(TensorSplitLocate, SwapProbeBracketParity)
{
    const Pair pair = phaseDefectPair();
    const QubitRegister q = pair.suspect.reg("q");

    // Swap probes always run tensor-staged; staged against monolithic
    // is pinned at the engine (TensorSplitEngine.*SameHistograms,
    // ResimWalk.StagedMatchesPerTrialReference). Here both strategies
    // must bracket the phase defect.
    for (const auto strategy :
         {Strategy::AdaptiveBinarySearch, Strategy::LinearScan}) {
        const BugLocator locator(pair.suspect, pair.reference,
                                 swapConfig(strategy));
        const auto report = locator.locate(q);
        EXPECT_EQ(report.suspectBegin(), kPhaseDefect) << report.summary();
    }
}

TEST(TensorSplitLocate, StagedProbesThreadCountInvariant)
{
    const Pair pair = phaseDefectPair();
    const QubitRegister q = pair.suspect.reg("q");

    std::vector<LocalizationReport> reports;
    for (const unsigned threads : {1u, 4u, 0u}) {
        LocateConfig cfg = swapConfig();
        cfg.numThreads = threads;
        const BugLocator locator(pair.suspect, pair.reference, cfg);
        reports.push_back(locator.locate(q));
    }
    for (std::size_t r = 1; r < reports.size(); ++r) {
        expectSameBrackets(reports.front(), reports[r]);
        // Staged trials key their streams by trial index, never by
        // worker or shard, so even the p-values are bit-identical.
        for (std::size_t i = 0; i < reports[r].probes.size(); ++i)
            EXPECT_EQ(reports.front().probes[i].pValue,
                      reports[r].probes[i].pValue);
    }
}

} // anonymous namespace
