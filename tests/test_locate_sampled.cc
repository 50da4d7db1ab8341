/**
 * @file
 * The sampled statistical oracle (OracleMode::Sampled / Auto
 * fallback): Monte-Carlo reference marginals for wide-measurement
 * programs past the exact oracle's branch cap.
 *
 * Pins: (1) sampled marginals agree with the exact mixture marginals
 * within a binomial confidence half-width on programs the exact
 * oracle handles; (2) forcing the sampled oracle reproduces the exact
 * oracle's bracket on every taxonomy fixture; (3) sampled derivation
 * is deterministic in the seed and bit-identical across thread
 * counts; (4) the wide-measurement flagship — a 13-round
 * semiclassical QPE whose 8192 outcome histories overflow the 4096
 * branch cap — throws a catchable DeriveError in exact mode and
 * localizes in Auto mode (sampled fallback) to a bracket containing
 * the defect, in fewer probes than a linear scan; (5) the sampled
 * oracle, one outcome-tree walk (runtime/walk.hh), tallies exactly
 * what a per-trial loop (perTrialTallies below) tallies, on generated
 * programs, every frame, dense and sparse boundary sets and budgets
 * that span two stream-bank chunks, and throws the same error on a
 * condition that reads an unmeasured label.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "circuit/circuit.hh"
#include "circuit/executor.hh"
#include "common/bits.hh"
#include "common/errors.hh"
#include "common/rng.hh"
#include "locate/locate.hh"
#include "locate/predicates.hh"
#include "obs/obs.hh"
#include "runtime/pool.hh"
#include "sim/gates.hh"

#include "program_generator.hh"

namespace
{

using namespace qsa;
using namespace qsa::locate;
using qsa::circuit::Circuit;
using qsa::circuit::Instruction;
using qsa::circuit::QubitRegister;

#if QSA_OBS_ENABLED
std::int64_t
counterValue(const std::string &name)
{
    for (const auto &[key, value] : obs::Registry::snapshot())
        if (key == name)
            return value;
    return 0;
}
#endif

bool
sameInstruction(const Instruction &a, const Instruction &b)
{
    return a.kind == b.kind && a.controls == b.controls &&
           a.targets == b.targets && a.angle == b.angle &&
           a.bit == b.bit && a.label == b.label &&
           a.condLabel == b.condLabel && a.condValue == b.condValue;
}

bool
intervalCoversDefect(const Circuit &suspect, const Circuit &reference,
                     std::size_t begin, std::size_t end)
{
    const auto &si = suspect.instructions();
    const auto &ri = reference.instructions();
    for (std::size_t i = begin; i < end; ++i) {
        if (i >= si.size() || i >= ri.size())
            return true;
        if (!sameInstruction(si[i], ri[i]))
            return true;
    }
    return false;
}

// --- Fixtures (the measured-program taxonomy of test_locate_measure) --------

enum class TeleportBug
{
    None,
    WrongInitialValue,
    FlippedPayload,
    MisroutedCorrection,
    BrokenMirror,
    WrongCondValue,
};

Circuit
buildMeasuredTeleport(TeleportBug bug)
{
    constexpr double theta = 1.1;
    constexpr double phi = 0.6;

    Circuit circ;
    const auto msg = circ.addRegister("msg", 1);
    const auto half = circ.addRegister("half", 1);
    const auto recv = circ.addRegister("recv", 1);

    circ.prepZ(msg[0], 0);
    circ.prepZ(half[0], 0);
    circ.prepZ(recv[0],
               bug == TeleportBug::WrongInitialValue ? 1 : 0);
    circ.ry(msg[0],
            bug == TeleportBug::FlippedPayload ? -theta : theta);
    circ.rz(msg[0], phi);
    circ.h(half[0]);
    circ.cnot(half[0], recv[0]);
    circ.cnot(msg[0], half[0]);
    circ.h(msg[0]);
    circ.measureQubits({half[0]}, "m_x");
    circ.measureQubits({msg[0]}, "m_z");

    circ.x(recv[0]);
    circ.conditionLast(
        bug == TeleportBug::MisroutedCorrection ? "m_z" : "m_x",
        bug == TeleportBug::WrongCondValue ? 0 : 1);
    circ.z(recv[0]);
    circ.conditionLast(
        bug == TeleportBug::MisroutedCorrection ? "m_x" : "m_z", 1);

    circ.rz(recv[0], -phi);
    circ.ry(recv[0],
            bug == TeleportBug::BrokenMirror ? theta : -theta);
    return circ;
}

enum class QpeBug
{
    None,
    WrongEigenstate,
    FlippedPhase,
    WrongFeedback,
};

/**
 * Semiclassical phase estimation with one recycled ancilla measuring
 * one phase bit per round (see test_locate_measure.cc). Branch count
 * is 2^t: t = 3 stays within the exact oracle's cap, t = 13 (8192
 * outcome histories) overflows it — the wide-measurement flagship.
 */
Circuit
buildSemiclassicalQpe(QpeBug bug, unsigned t = 3)
{
    const double phase = 1.0 / 3.0; // non-dyadic: every bit is random

    Circuit circ;
    const auto sys = circ.addRegister("sys", 1);
    const auto anc = circ.addRegister("anc", 1);

    circ.prepZ(sys[0], bug == QpeBug::WrongEigenstate ? 0 : 1);
    circ.prepZ(anc[0], 0);

    for (unsigned l = t; l >= 1; --l) {
        if (l < t)
            circ.prepZ(anc[0], 0); // recycle the ancilla
        circ.h(anc[0]);
        const double sign = bug == QpeBug::FlippedPhase ? -1.0 : 1.0;
        circ.cphase(anc[0], sys[0],
                    sign * 2.0 * M_PI * phase *
                        static_cast<double>(1u << (l - 1)));
        for (unsigned j = l + 1; j <= t; ++j) {
            const unsigned denom_pow =
                bug == QpeBug::WrongFeedback ? j - l : j - l + 1;
            circ.phase(anc[0],
                       -2.0 * M_PI /
                           static_cast<double>(1u << denom_pow));
            circ.conditionLast("m_" + std::to_string(j), 1);
        }
        circ.h(anc[0]);
        circ.measureQubits({anc[0]}, "m_" + std::to_string(l));
    }
    return circ;
}

struct Fixture
{
    std::string name;
    Circuit suspect;
    Circuit reference;
};

std::vector<Fixture>
taxonomyFixtures()
{
    std::vector<Fixture> out;
    const auto teleport = [&](TeleportBug bug, const char *name) {
        out.push_back({std::string("teleport/") + name,
                       buildMeasuredTeleport(bug),
                       buildMeasuredTeleport(TeleportBug::None)});
    };
    const auto qpe = [&](QpeBug bug, const char *name) {
        out.push_back({std::string("qpe/") + name,
                       buildSemiclassicalQpe(bug),
                       buildSemiclassicalQpe(QpeBug::None)});
    };
    teleport(TeleportBug::WrongInitialValue, "wrong-initial-value");
    teleport(TeleportBug::FlippedPayload, "flipped-payload");
    teleport(TeleportBug::MisroutedCorrection, "misrouted-correction");
    teleport(TeleportBug::BrokenMirror, "broken-mirror");
    teleport(TeleportBug::WrongCondValue, "wrong-cond-value");
    qpe(QpeBug::WrongEigenstate, "wrong-eigenstate");
    qpe(QpeBug::FlippedPhase, "flipped-phase");
    qpe(QpeBug::WrongFeedback, "wrong-feedback");
    return out;
}

LocateConfig
sampledConfig(OracleMode oracle,
              Strategy strategy = Strategy::AdaptiveBinarySearch,
              unsigned num_threads = 0)
{
    LocateConfig cfg;
    cfg.strategy = strategy;
    cfg.mode = assertions::EnsembleMode::Resimulate;
    cfg.ensembleSize = 64;
    cfg.maxEnsembleSize = 1024;
    cfg.numThreads = num_threads;
    cfg.oracleMode = oracle;
    return cfg;
}

void
expectLocalizes(const Fixture &fx, const LocalizationReport &report)
{
    ASSERT_TRUE(report.bugFound) << fx.name << ": " << report.summary();
    EXPECT_EQ(report.firstFailing, report.lastPassing + 1) << fx.name;
    EXPECT_TRUE(intervalCoversDefect(fx.suspect, fx.reference,
                                     report.suspectBegin(),
                                     report.suspectEnd()))
        << fx.name << ": " << report.summary();
}

/** The exact predicate's probability vector, densified per kind. */
std::vector<double>
densify(const BoundaryPredicate &pred, unsigned width)
{
    const std::size_t dim = std::size_t{1} << width;
    std::vector<double> probs(dim, 0.0);
    switch (pred.kind) {
      case assertions::AssertionKind::Classical:
        probs[pred.expectedValue] = 1.0;
        break;
      case assertions::AssertionKind::Superposition:
        std::fill(probs.begin(), probs.end(),
                  1.0 / static_cast<double>(dim));
        break;
      default:
        probs = pred.expectedProbs;
        break;
    }
    return probs;
}

// --- Sampled-vs-exact marginal agreement ------------------------------------

TEST(SampledOracle, MarginalsAgreeWithExactWithinConfidenceInterval)
{
    // On programs the exact oracle handles, every sampled boundary
    // marginal must sit within a binomial confidence half-width of
    // the exact mixture marginal (z = 4, plus one count of slack):
    // the estimator is unbiased and the trial budget is the only
    // noise source. The inputs are the hand fixtures and generated
    // programs with mid-circuit measures, random resets and
    // conditions, read on two of their qubits.
    struct Case
    {
        Circuit circ;
        QubitRegister reg;
    };
    std::vector<Case> cases;
    const Circuit teleport = buildMeasuredTeleport(TeleportBug::None);
    cases.push_back({teleport, teleport.reg("recv")});
    const Circuit qpe = buildSemiclassicalQpe(QpeBug::None);
    cases.push_back({qpe, qpe.reg("anc")});
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const Circuit program =
            testgen::monolithicProgram(seed, 3 + seed % 2, 20);
        cases.push_back({program, QubitRegister("pair", {0, 2})});
    }

    for (const Case &c : cases) {
        const QubitRegister &reg = c.reg;

        OracleOptions exact_opts;
        exact_opts.mode = OracleMode::Exact;
        const PredicateOracle exact(c.circ, reg, 0x51c0ffee,
                                    exact_opts);
        ASSERT_FALSE(exact.sampled());

        OracleOptions sampled_opts;
        sampled_opts.mode = OracleMode::Sampled;
        const PredicateOracle sampled(c.circ, reg, 0x51c0ffee,
                                      sampled_opts);
        ASSERT_TRUE(sampled.sampled());
        ASSERT_EQ(sampled.trials(), 4096u);

        const double trials =
            static_cast<double>(sampled.trials());
        for (std::size_t b = 0; b <= c.circ.size(); ++b) {
            const auto exact_probs =
                densify(exact.at(b), reg.width());
            const auto &pred = sampled.at(b);
            ASSERT_EQ(pred.kind,
                      assertions::AssertionKind::Distribution);
            ASSERT_EQ(pred.referenceTrials, sampled.trials());
            ASSERT_EQ(pred.expectedProbs.size(), exact_probs.size());
            ASSERT_EQ(pred.referenceCounts.size(),
                      exact_probs.size());

            double total = 0.0;
            for (std::size_t v = 0; v < exact_probs.size(); ++v) {
                const double p = exact_probs[v];
                const double phat = pred.expectedProbs[v];
                const double half_width =
                    4.0 * std::sqrt(p * (1.0 - p) / trials) +
                    1.0 / trials;
                EXPECT_NEAR(phat, p, half_width)
                    << reg.name() << " boundary " << b << " value " << v;
                EXPECT_EQ(pred.referenceCounts[v], phat * trials);
                total += pred.referenceCounts[v];
            }
            EXPECT_EQ(total, trials)
                << reg.name() << " boundary " << b;
        }
    }
}

TEST(SampledOracle, ExactStaysTheDefaultOnNarrowPrograms)
{
    // Auto mode must not pay for sampling (or change any predicate)
    // when the exact derivation fits the cap.
    const Circuit circ = buildMeasuredTeleport(TeleportBug::None);
    const PredicateOracle oracle(circ, circ.reg("recv"));
    EXPECT_FALSE(oracle.sampled());
    EXPECT_EQ(oracle.trials(), 0u);
}

TEST(SampledOracle, DerivationIsDeterministicInTheSeed)
{
    const Circuit circ = buildSemiclassicalQpe(QpeBug::None);
    const QubitRegister anc = circ.reg("anc");

    OracleOptions opts;
    opts.mode = OracleMode::Sampled;
    const PredicateOracle a(circ, anc, 0x1234, opts);
    const PredicateOracle b(circ, anc, 0x1234, opts);

    ASSERT_EQ(a.entries().size(), b.entries().size());
    auto ita = a.entries().begin();
    auto itb = b.entries().begin();
    for (; ita != a.entries().end(); ++ita, ++itb) {
        EXPECT_EQ(ita->first, itb->first);
        EXPECT_EQ(ita->second.expectedProbs,
                  itb->second.expectedProbs);
        EXPECT_EQ(ita->second.referenceCounts,
                  itb->second.referenceCounts);
    }
}

// --- The walked oracle against a per-trial loop -----------------------------

/** Salt of the sampled oracle's outcome-draw streams (predicates.cc);
 *  part of the stream layout its store payloads depend on. */
constexpr std::uint64_t kSampleDrawSalt = 0x5a3d53edc0117ecULL;

/** Outcome tallies of a sampled derivation by (boundary, frame). */
using Tallies = std::map<std::pair<std::size_t, Frame>, std::vector<double>>;

/**
 * The sampled oracle as a loop over trials: trial t runs `reference`
 * alone from |0...0> on Rng(seed).split(t), one instruction at a time,
 * with its own measurement record, and at each wanted boundary b
 * (every one when `boundaries` is null) draws one outcome per frame
 * through Rng::discrete over its state's marginal of `qubits` in that
 * frame, from Rng(seed ^ kSampleDrawSalt).split(3b + frame).split(t).
 * The pass ends at the last wanted boundary.
 */
Tallies
perTrialTallies(const Circuit &reference, const std::vector<unsigned> &qubits,
                std::uint64_t seed, const std::vector<std::size_t> *boundaries,
                const std::vector<Frame> &frames, std::size_t trials)
{
    const auto wanted = [&](std::size_t b) {
        return boundaries == nullptr ||
               std::find(boundaries->begin(), boundaries->end(), b) !=
                   boundaries->end();
    };
    std::size_t end = reference.size();
    if (boundaries != nullptr) {
        end = boundaries->empty()
                  ? 0
                  : std::min(*std::max_element(boundaries->begin(),
                                               boundaries->end()),
                             reference.size());
    }
    Tallies counts;
    const auto drawAt = [&](std::size_t b, std::size_t trial,
                            const sim::StateVector &state) {
        for (Frame frame : frames) {
            sim::StateVector rotated = state;
            for (unsigned q : qubits) {
                if (frame == Frame::Y)
                    rotated.applyGate(sim::gates::sdg(), q);
                if (frame != Frame::Z)
                    rotated.applyGate(sim::gates::h(), q);
            }
            Rng draw = Rng(seed ^ kSampleDrawSalt)
                           .split(b * 3 + static_cast<std::size_t>(frame))
                           .split(trial);
            std::vector<double> &tally = counts[{b, frame}];
            if (tally.empty())
                tally.assign(pow2(qubits.size()), 0.0);
            tally[draw.discrete(rotated.marginalProbs(qubits))] += 1.0;
        }
    };
    for (std::size_t t = 0; t < trials; ++t) {
        Rng traj = Rng(seed).split(t);
        sim::StateVector state(reference.numQubits());
        std::map<std::string, std::uint64_t> meas;
        if (wanted(0))
            drawAt(0, t, state);
        for (std::size_t k = 0; k < end; ++k) {
            circuit::stepInstruction(reference, reference.instructions()[k],
                                     state, meas, traj);
            if (wanted(k + 1))
                drawAt(k + 1, t, state);
        }
    }
    return counts;
}

/** A sampled oracle's entries equal `want`'s tallies, as counts and as
 *  counts / trials. */
void
expectSameTallies(const PredicateOracle &oracle, const Tallies &want,
                  std::size_t trials, const std::string &what)
{
    ASSERT_TRUE(oracle.sampled()) << what;
    ASSERT_EQ(oracle.entries().size(), want.size()) << what;
    for (const auto &[key, counts] : want) {
        const auto it = oracle.entries().find(key);
        ASSERT_NE(it, oracle.entries().end())
            << what << " b=" << key.first << " " << frameName(key.second);
        const BoundaryPredicate &pred = it->second;
        EXPECT_EQ(pred.kind, assertions::AssertionKind::Distribution);
        EXPECT_EQ(pred.referenceTrials, trials) << what;
        EXPECT_EQ(pred.referenceCounts, counts)
            << what << " b=" << key.first << " " << frameName(key.second);
        std::vector<double> probs;
        for (double c : counts)
            probs.push_back(c / static_cast<double>(trials));
        EXPECT_EQ(pred.expectedProbs, probs)
            << what << " b=" << key.first << " " << frameName(key.second);
    }
}

/**
 * A sampled derivation, made on the calling thread and on each worker
 * of a four-thread pool and of the shared pool at once, tallies what
 * perTrialTallies does.
 */
void
expectWalkedOracleMatchesPerTrial(const Circuit &reference,
                                  const QubitRegister &reg,
                                  std::uint64_t seed,
                                  const std::vector<std::size_t> *boundaries,
                                  const std::vector<Frame> &frames,
                                  std::size_t trials, const std::string &what)
{
    const Tallies want =
        perTrialTallies(reference, reg.qubits(), seed, boundaries, frames,
                        trials);
    OracleOptions options;
    options.mode = OracleMode::Sampled;
    options.sampleTrials = trials;
    const auto derive = [&] {
        return PredicateOracle(reference, reg, seed, boundaries, frames,
                               options);
    };
    expectSameTallies(derive(), want, trials, what + " threads=1");
    for (const unsigned threads : {4u, 0u}) {
        std::unique_ptr<runtime::ThreadPool> owned;
        runtime::ThreadPool &pool = runtime::ThreadPool::resolve(threads, owned);
        std::vector<std::map<std::pair<std::size_t, Frame>, BoundaryPredicate>>
            got(pool.concurrency());
        pool.parallelFor(got.size(),
                         [&](std::size_t i) { got[i] = derive().entries(); });
        for (const auto &entries : got) {
            ASSERT_EQ(entries.size(), want.size()) << what;
            for (const auto &[key, counts] : want)
                EXPECT_EQ(entries.at(key).referenceCounts, counts)
                    << what << " threads=" << threads << " b=" << key.first;
        }
    }
}

TEST(SampledOracle, WalkedTalliesEqualThePerTrialLoop)
{
    // Generated programs with mid-circuit measures (label reuse),
    // random resets and conditions; every frame; dense, sparse (with
    // repeats and a boundary past the end) and empty boundary sets.
    const std::vector<Frame> z{Frame::Z};
    const std::vector<Frame> all_frames{Frame::Z, Frame::X, Frame::Y};
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const Circuit reference =
            testgen::monolithicProgram(seed, 3 + seed % 2, 22);
        const QubitRegister reg("r", {2, 0});
        const std::size_t n = reference.size();
        const std::vector<std::size_t> sparse{n / 3, 2, n / 3, n - 4};
        const std::vector<std::size_t> past_end{0, n / 2, n + 3};
        const std::vector<std::size_t> none;
        const std::string what = "program " + std::to_string(seed);
        expectWalkedOracleMatchesPerTrial(reference, reg, seed * 31, nullptr,
                                          all_frames, 256, what + " dense");
        expectWalkedOracleMatchesPerTrial(reference, reg, seed * 31, &sparse,
                                          all_frames, 256, what + " sparse");
        expectWalkedOracleMatchesPerTrial(reference, reg, seed * 31,
                                          &past_end, z, 256,
                                          what + " past the end");
        expectWalkedOracleMatchesPerTrial(reference, reg, seed * 31, &none, z,
                                          256, what + " none");
    }
}

TEST(SampledOracle, WalkedTalliesEqualThePerTrialLoopAtEveryBudget)
{
    // One trial, the default budget and one that spans two stream-bank
    // chunks (8,192 + 517 trials: the second walk's trials are 8,192
    // onwards, each on its own stream).
    const Circuit reference = testgen::monolithicProgram(9, 3, 18);
    const QubitRegister reg("r", {0, 1, 2});
    const std::vector<std::size_t> sparse{1, reference.size() / 2,
                                          reference.size()};
    const std::vector<Frame> frames{Frame::Z, Frame::Y};
    for (const std::size_t trials : {1u, 256u, 4096u, 8192u + 517u}) {
        expectWalkedOracleMatchesPerTrial(
            reference, reg, 0x51c0ffee, &sparse, frames, trials,
            "trials " + std::to_string(trials));
    }
}

TEST(SampledOracle, WalkedTalliesEqualThePerTrialLoopOnTheWideFixture)
{
    // The wide-measurement reference the sampled oracle exists for:
    // work qubit measured in 13 rounds (8,192 outcome histories),
    // carry qubit in superposition, read on both, at every boundary.
    Circuit reference;
    const auto work = reference.addRegister("work", 1);
    const auto carry = reference.addRegister("carry", 1);
    reference.h(work[0]);
    reference.measureQubits({work[0]}, "m_r0");
    reference.h(carry[0]);
    for (int round = 1; round < 13; ++round) {
        reference.h(work[0]);
        reference.measureQubits({work[0]}, "m_r" + std::to_string(round));
    }
    expectWalkedOracleMatchesPerTrial(
        reference, QubitRegister("all", {0, 1}), 0x51c0ffee, nullptr,
        {Frame::Z}, 4096, "wide-measure");
}

TEST(SampledOracle, ConditionOnAnUnmeasuredLabelThrowsAsThePerTrialLoop)
{
    // A condition on a label nothing measures, and one on a label
    // measured only after it, once the walk has split on an earlier
    // measurement: the walk throws the per-trial loop's error.
    Circuit never(2);
    never.h(0);
    never.x(1);
    never.conditionLast("never", 1);
    Circuit too_early(2);
    too_early.h(0);
    too_early.measureQubits({0}, "a");
    too_early.x(1);
    too_early.conditionLast("b", 1);
    too_early.measureQubits({1}, "b");

    OracleOptions options;
    options.mode = OracleMode::Sampled;
    options.sampleTrials = 64;
    for (const Circuit *reference : {&never, &too_early}) {
        std::string want;
        try {
            perTrialTallies(*reference, {0}, 7, nullptr, {Frame::Z}, 64);
        } catch (const qsa::Error &err) {
            want = err.what();
        }
        ASSERT_NE(want, "");
        try {
            PredicateOracle(*reference, QubitRegister("q", {0}), 7, options);
            ADD_FAILURE() << "no error for " << want;
        } catch (const qsa::Error &err) {
            EXPECT_EQ(std::string(err.what()), want);
        }
    }
}

// --- Bracket identity on the taxonomy ---------------------------------------

TEST(SampledOracle, SampledBracketsMatchExactOnTaxonomyFixtures)
{
    // Forcing the sampled oracle on every fixture the exact oracle
    // handles must reproduce the exact bracket: 4096 reference
    // trajectories resolve every divergence the taxonomy's defects
    // produce.
    for (const Fixture &fx : taxonomyFixtures()) {
        const auto exact =
            BugLocator(fx.suspect, fx.reference,
                       sampledConfig(OracleMode::Exact))
                .locate();
        const auto sampled =
            BugLocator(fx.suspect, fx.reference,
                       sampledConfig(OracleMode::Sampled))
                .locate();
        expectLocalizes(fx, exact);
        expectLocalizes(fx, sampled);
        EXPECT_EQ(exact.lastPassing, sampled.lastPassing) << fx.name;
        EXPECT_EQ(exact.firstFailing, sampled.firstFailing)
            << fx.name;
    }
}

// --- The wide-measurement flagship ------------------------------------------

/** 13 rounds: 8192 outcome histories, past the 4096 branch cap. */
constexpr unsigned kWideRounds = 13;

Fixture
wideQpeFixture(QpeBug bug = QpeBug::FlippedPhase)
{
    Fixture fx;
    fx.name = "qpe-wide/t13";
    fx.suspect = buildSemiclassicalQpe(bug, kWideRounds);
    fx.reference = buildSemiclassicalQpe(QpeBug::None, kWideRounds);
    return fx;
}

TEST(WideMeasurement, ExactModeThrowsDeriveError)
{
    const Fixture fx = wideQpeFixture();
    const BugLocator locator(fx.suspect, fx.reference,
                             sampledConfig(OracleMode::Exact));
    try {
        locator.locate();
        FAIL() << "exact oracle past the branch cap must throw";
    } catch (const DeriveError &err) {
        EXPECT_NE(std::string(err.what()).find("exceeded its cap"),
                  std::string::npos)
            << err.what();
        EXPECT_NE(err.where().find("measure"), std::string::npos)
            << err.where();
    }
}

TEST(WideMeasurement, AutoFallsBackToSampledAndBracketsTheDefect)
{
    const Fixture fx = wideQpeFixture();
#if QSA_OBS_ENABLED
    const std::int64_t fallbacks0 =
        counterValue("locate.oracle.sampled_fallbacks");
    const std::int64_t trials0 =
        counterValue("locate.oracle.sampled_trials");
#endif

    const LocateConfig cfg = sampledConfig(OracleMode::Auto);
    const BugLocator locator(fx.suspect, fx.reference, cfg);
    const auto report = locator.locate();
    expectLocalizes(fx, report);

    // The fallback's witness in every build: the reference's Auto
    // oracle over the full space (the mirror probes' register) is a
    // sampled one.
    std::vector<unsigned> all(fx.reference.numQubits());
    for (unsigned q = 0; q < all.size(); ++q)
        all[q] = q;
    OracleOptions auto_mode;
    auto_mode.mode = OracleMode::Auto;
    EXPECT_TRUE(PredicateOracle(fx.reference, QubitRegister("all", all),
                                cfg.seed, auto_mode)
                    .sampled())
        << "Auto mode never hit the sampled fallback";
#if QSA_OBS_ENABLED
    EXPECT_GT(counterValue("locate.oracle.sampled_fallbacks"),
              fallbacks0)
        << "Auto mode never hit the sampled fallback";
    EXPECT_GT(counterValue("locate.oracle.sampled_trials"), trials0);
#endif
}

TEST(WideMeasurement, AdaptiveUsesFewerProbesThanLinearScan)
{
    const Fixture fx = wideQpeFixture();

    LocateConfig fast_cfg = sampledConfig(OracleMode::Auto);
    fast_cfg.staticPruning = false;
    const auto fast =
        BugLocator(fx.suspect, fx.reference, fast_cfg).locate();

    LocateConfig scan_cfg =
        sampledConfig(OracleMode::Auto, Strategy::LinearScan);
    scan_cfg.staticPruning = false;
    const auto scan =
        BugLocator(fx.suspect, fx.reference, scan_cfg).locate();

    expectLocalizes(fx, fast);
    expectLocalizes(fx, scan);
    EXPECT_LT(fast.probes.size(), scan.probes.size());
}

TEST(WideMeasurement, ThreadCountInvariant)
{
    // The sampled derivation is one walk on the calling thread and
    // every ensemble trial keys its stream by trial index: the whole
    // localization — probed boundaries, ensemble sizes, p-values —
    // is bit-identical at 1, 4, and auto threads.
    const Fixture fx = wideQpeFixture();

    std::vector<LocalizationReport> reports;
    for (unsigned threads : {1u, 4u, 0u}) {
        const BugLocator locator(
            fx.suspect, fx.reference,
            sampledConfig(OracleMode::Sampled,
                          Strategy::AdaptiveBinarySearch, threads));
        reports.push_back(locator.locate());
    }
    const auto &a = reports.front();
    for (std::size_t r = 1; r < reports.size(); ++r) {
        const auto &b = reports[r];
        EXPECT_EQ(a.lastPassing, b.lastPassing);
        EXPECT_EQ(a.firstFailing, b.firstFailing);
        ASSERT_EQ(a.probes.size(), b.probes.size());
        for (std::size_t i = 0; i < a.probes.size(); ++i) {
            EXPECT_EQ(a.probes[i].boundary, b.probes[i].boundary);
            EXPECT_EQ(a.probes[i].ensembleSize,
                      b.probes[i].ensembleSize);
            EXPECT_EQ(a.probes[i].pValue, b.probes[i].pValue);
            EXPECT_EQ(a.probes[i].failed, b.probes[i].failed);
        }
    }
}

TEST(WideMeasurement, SeedInvariantBracket)
{
    const Fixture fx = wideQpeFixture();
    LocateConfig cfg = sampledConfig(OracleMode::Sampled);
    const auto a =
        BugLocator(fx.suspect, fx.reference, cfg).locate();
    cfg.seed = 0xfeedbeef;
    const auto b =
        BugLocator(fx.suspect, fx.reference, cfg).locate();
    EXPECT_EQ(a.lastPassing, b.lastPassing);
    EXPECT_EQ(a.firstFailing, b.firstFailing);
}

} // anonymous namespace
