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
 * the defect, in fewer probes than a linear scan.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.hh"
#include "common/errors.hh"
#include "locate/locate.hh"
#include "locate/predicates.hh"
#include "obs/obs.hh"

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
    // noise source.
    struct Case
    {
        Circuit circ;
        std::string reg;
    };
    const Case cases[] = {
        {buildMeasuredTeleport(TeleportBug::None), "recv"},
        {buildSemiclassicalQpe(QpeBug::None), "anc"},
    };

    for (const Case &c : cases) {
        const QubitRegister reg = c.circ.reg(c.reg);

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
                    << c.reg << " boundary " << b << " value " << v;
                EXPECT_EQ(pred.referenceCounts[v], phat * trials);
                total += pred.referenceCounts[v];
            }
            EXPECT_EQ(total, trials)
                << c.reg << " boundary " << b;
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
    // The sampled derivation is a single serial trajectory loop and
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
