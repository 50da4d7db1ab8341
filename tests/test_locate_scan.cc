/**
 * @file
 * LinearScan records pinned byte for byte. Every (family, scope) the
 * locator accepts scans the six bench_locate fixtures and seeded
 * generated program pairs with mid-circuit measurements, with
 * Holm-Bonferroni on and off; each probe record (boundary, kind,
 * ensemble size, p-value to 17 digits, verdict, phase-ambiguous flag)
 * must equal tests/locate_scan.golden at one, four and the shared
 * pool's threads. The misrouted-control and wrong-inverse scans (250
 * and 221 boundaries) run in several 64-boundary chunks.
 *
 * Set QSA_LOCATE_SCAN_GOLDEN_OUT to a path to write the records this
 * build gives there (the one-thread run writes it):
 *
 *   QSA_LOCATE_SCAN_GOLDEN_OUT=tests/locate_scan.golden \
 *       ./build/test_locate_scan --gtest_filter='*Serial*'
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "../bench/locate_fixtures.hh"
#include "program_generator.hh"
#include "qsa/qsa.hh"

namespace
{

using namespace qsa;
using namespace qsa::locate;
using assertions::EnsembleMode;
using circuit::Circuit;
using circuit::QubitRegister;

/** One program pair and the registers its register scopes use. */
struct ScanInput
{
    std::string name;
    Circuit suspect;
    Circuit reference;
    QubitRegister reg;
    QubitRegister partner;
    LocateConfig base;
};

/**
 * A generated reference with mid-circuit measurements, conditioned
 * gates and resets, and a suspect whose first unconditioned gate past
 * the program's first quarter is replaced by a rotation; the register
 * scopes probe the replaced gate's target.
 */
ScanInput
generatedInput(std::uint64_t seed)
{
    ScanInput in;
    in.name = "generated-" + std::to_string(seed);
    in.reference = testgen::monolithicProgram(seed, 3, 24);
    const auto &insts = in.reference.instructions();
    std::size_t site = insts.size() / 4;
    while (site + 1 < insts.size() &&
           (!circuit::gateKindInvertible(insts[site].kind) ||
            insts[site].kind == circuit::GateKind::Breakpoint ||
            !insts[site].condLabel.empty()))
        ++site;
    const unsigned target = insts[site].targets[0];
    in.suspect = in.reference.sliceRange(0, site);
    in.suspect.ry(target, 1.3);
    in.suspect.appendRange(in.reference, site + 1, insts.size());
    in.reg = QubitRegister("r", {target});
    in.partner = QubitRegister("s", {(target + 1) % 3});
    return in;
}

std::vector<ScanInput>
scanInputs()
{
    struct Fixture
    {
        int which;
        const char *reg;
        const char *partner;
    };
    const Fixture fixtures[] = {
        {0, "b", "ctrl"},   {1, "b", "x"},      {2, "b", "x"},
        {3, "recv", "msg"}, {4, "recv", "msg"}, {5, "carry", "work"},
    };
    std::vector<ScanInput> inputs;
    for (const Fixture &fx : fixtures) {
        ScanInput in;
        in.name = locatefix::fixtureName(fx.which);
        std::tie(in.suspect, in.reference) =
            locatefix::fixturePair(fx.which);
        in.reg = in.suspect.reg(fx.reg);
        in.partner = in.suspect.reg(fx.partner);
        locatefix::setEnsembleSizes(in.base, fx.which);
        if (fx.which == 5)
            in.base.oracleMode = OracleMode::Sampled; // as bench_locate
        inputs.push_back(std::move(in));
    }
    for (std::uint64_t seed : {11u, 12u, 13u, 14u})
        inputs.push_back(generatedInput(seed));
    return inputs;
}

/** A (family, scope) the locator accepts, with its ensemble mode. */
struct ScanCase
{
    const char *name;
    ProbeFamily family;
    EnsembleMode mode;
    int registers; // 0 = full space, 1 = `reg`, 2 = (`reg`, `partner`)
};

const ScanCase kCases[] = {
    {"mirror/final-state", ProbeFamily::SegmentMirror,
     EnsembleMode::SampleFinalState, 0},
    {"mirror/resimulate", ProbeFamily::SegmentMirror,
     EnsembleMode::Resimulate, 0},
    {"swap/full", ProbeFamily::SwapTest, EnsembleMode::Resimulate, 0},
    {"swap/register", ProbeFamily::SwapTest, EnsembleMode::Resimulate, 1},
    {"rotated/register", ProbeFamily::RotatedMarginal,
     EnsembleMode::Resimulate, 1},
    {"marginal/register", ProbeFamily::MixtureMarginal,
     EnsembleMode::Resimulate, 1},
    {"marginal/pair", ProbeFamily::MixtureMarginal,
     EnsembleMode::Resimulate, 2},
    {"auto/full", ProbeFamily::Auto, EnsembleMode::Resimulate, 0},
    {"auto/register", ProbeFamily::Auto, EnsembleMode::Resimulate, 1},
};

/** The 17-digit rendering of a p-value. */
std::string
exact(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

/** One scan's lines: its summary, then one line per probe record. */
std::string
scanRecords(const ScanInput &in, const ScanCase &c, bool holm,
            unsigned threads)
{
    LocateConfig cfg = in.base;
    cfg.strategy = Strategy::LinearScan;
    cfg.family = c.family;
    cfg.mode = c.mode;
    cfg.holmBonferroni = holm;
    cfg.numThreads = threads;
    const Scope scope = c.registers == 0   ? Scope()
                        : c.registers == 1 ? Scope(in.reg)
                                           : Scope(in.reg, in.partner);
    std::ostringstream os;
    os << in.name << " " << c.name << " holm=" << holm << ": ";
    try {
        const LocalizationReport report =
            BugLocator(in.suspect, in.reference, cfg).locate(scope);
        os << report.summary() << "\n";
        for (const ProbeRecord &rec : report.probes) {
            os << "  " << rec.boundary << " "
               << probeFamilyName(rec.family) << " "
               << assertions::assertionKindName(rec.kind)
               << " n=" << rec.ensembleSize << " p=" << exact(rec.pValue)
               << (rec.failed ? " fail" : " pass")
               << (rec.phaseAmbiguous ? " phase-ambiguous" : "") << "\n";
        }
    } catch (const Error &err) {
        os << "error: " << err.what() << "\n";
    }
    return os.str();
}

/** Every scan's records at `threads`, in golden order. */
std::string
allRecords(unsigned threads)
{
    std::ostringstream os;
    for (const ScanInput &in : scanInputs())
        for (const ScanCase &c : kCases)
            for (bool holm : {true, false})
                os << scanRecords(in, c, holm, threads);
    return os.str();
}

void
expectGolden(const std::string &actual)
{
    std::ifstream file(std::string(QSA_TESTS_DIR) + "/locate_scan.golden");
    ASSERT_TRUE(file) << "tests/locate_scan.golden is missing";
    std::istringstream got(actual);
    std::string expected_line, got_line;
    std::size_t index = 0, mismatches = 0;
    while (std::getline(file, expected_line)) {
        ASSERT_TRUE(std::getline(got, got_line))
            << "fewer records than the golden's";
        if (got_line != expected_line && ++mismatches <= 10)
            ADD_FAILURE() << "line " << index << "\n  golden: "
                          << expected_line << "\n  actual: " << got_line;
        ++index;
    }
    EXPECT_FALSE(std::getline(got, got_line))
        << "more records than the golden's";
    EXPECT_EQ(mismatches, 0u);
}

TEST(LocateScanGolden, SerialRecordsMatchTheGolden)
{
    const std::string actual = allRecords(1);
    if (const char *out = std::getenv("QSA_LOCATE_SCAN_GOLDEN_OUT"))
        std::ofstream(out) << actual;
    expectGolden(actual);
}

TEST(LocateScanGolden, FourThreadRecordsMatchTheGolden)
{
    expectGolden(allRecords(4));
}

TEST(LocateScanGolden, SharedPoolRecordsMatchTheGolden)
{
    expectGolden(allRecords(0));
}

#if QSA_OBS_ENABLED
std::int64_t
counterValue(const std::string &name)
{
    for (const auto &[key, value] : obs::Registry::snapshot())
        if (key == name)
            return value;
    return 0;
}

TEST(LocateScanWork, DualMirrorScanProbeBuildsOnePlan)
{
    // A dual mirror probe's two breakpoints lie on one probe program:
    // checked together, they read out of one plan (the pre-unwind
    // breakpoint as a tap of the walk), so each probe builds one.
    for (const int which : {3, 5}) {
        const ScanInput in = scanInputs()[which];
        LocateConfig cfg = in.base;
        cfg.strategy = Strategy::LinearScan;
        cfg.mode = EnsembleMode::Resimulate;
        cfg.numThreads = 1;
        obs::Registry::reset();
        const LocalizationReport report =
            BugLocator(in.suspect, in.reference, cfg).locate();
        ASSERT_FALSE(report.probes.empty()) << in.name;
        EXPECT_EQ(counterValue("runtime.head_cache.misses"),
                  static_cast<std::int64_t>(report.probes.size()))
            << in.name;
    }
}
#endif

} // namespace
