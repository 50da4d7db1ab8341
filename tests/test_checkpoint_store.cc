/**
 * @file
 * Checkpoint-store tests. Ensemble engines that share one
 * runtime::CheckpointStore resume each program from the longest
 * prefix an earlier engine stored; on sequences of generated
 * probe-like programs that share prefixes, their gather() results
 * must equal those of engines without a store, in both ensemble
 * modes and at every thread count, with work counters that do not
 * depend on the thread count. An exact oracle
 * derivation resumed from a kept branch mixture must equal the
 * from-scratch derivation, an oracle pass that ends at its last wanted
 * boundary must record what a pass over the whole reference records
 * there, the store must stay within its byte
 * budget, and localizations — which share one store per adaptive
 * mirror search — must keep the brackets, probe counts and shots
 * they had before the store existed.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "algo/arith.hh"
#include "algo/numtheory.hh"
#include "algo/qft.hh"
#include "algo/shor.hh"
#include "bugs/injectors.hh"
#include "circuit/circuit.hh"
#include "common/rng.hh"
#include "locate/locate.hh"
#include "locate/predicates.hh"
#include "obs/obs.hh"
#include "runtime/checkpoint.hh"
#include "runtime/ensemble.hh"

#include "program_generator.hh"

namespace
{

using namespace qsa;
using qsa::circuit::Circuit;
using qsa::testgen::ProgramGenerator;

/** Final breakpoint of every probe-like program. */
const std::string kEnd = "probe_end";

/** Engine options sharing `store`. */
runtime::EngineOptions
sharing(runtime::CheckpointStore &store)
{
    runtime::EngineOptions options;
    options.checkpoints = &store;
    return options;
}

#if QSA_OBS_ENABLED
/** Counters that must not depend on the thread count. */
std::map<std::string, std::int64_t>
workCounters()
{
    std::map<std::string, std::int64_t> out;
    for (const auto &[name, value] : obs::Registry::snapshot()) {
        if (name.rfind("sim.", 0) == 0 ||
            name.rfind("runtime.checkpoint.", 0) == 0)
            out[name] = value;
    }
    return out;
}

std::int64_t
counter(const std::string &name)
{
    for (const auto &[metric, value] : obs::Registry::snapshot())
        if (metric == name)
            return value;
    return 0;
}
#endif

// --- Engine ------------------------------------------------------------------

/**
 * A suspect-like program: certain-reset prologues, a long gate run
 * with dense unitaries (the deterministic head), then a generated
 * block with mid-circuit measurements, resets and conditions.
 */
Circuit
suspectProgram(std::uint64_t seed, unsigned n)
{
    Circuit circ(n);
    ProgramGenerator gen(circ, seed);
    testgen::prologue(circ, 0);
    testgen::prologue(circ, n - 1);
    gen.appendGates(0, n, 24);
    circ.breakpoint("user_mark");
    gen.appendGates(0, n, 8);
    gen.append(0, n, 14);
    return circ;
}

/**
 * A probe-like program: the suspect prefix up to `boundary` with
 * markers at `floor` and at `boundary`, then an unwind-like tail
 * drawn from `tail_seed` (a gate run holding one dense unitary whose
 * matrix comes from `matrix_seed`, then a short generated block),
 * then kEnd.
 */
Circuit
probeProgram(const Circuit &suspect, std::size_t floor,
             std::size_t boundary, std::uint64_t tail_seed,
             std::uint64_t matrix_seed)
{
    const unsigned n = suspect.numQubits();
    Circuit probe = suspect.sliceRange(0, floor);
    probe.breakpoint("floor_mark");
    probe.appendCircuit(suspect.sliceRange(floor, boundary));
    probe.breakpoint("boundary_mark");
    ProgramGenerator tail(probe, tail_seed);
    tail.appendGates(0, n, 4);
    ProgramGenerator matrix(probe, matrix_seed);
    probe.unitary(matrix.randomUnitary(2), {0});
    tail.appendGates(0, n, 3);
    tail.append(0, n, 3);
    probe.breakpoint(kEnd);
    return probe;
}

/**
 * Probe programs of one bisection-like search over [0, size]: each
 * probe's floor is the bracket's passing bound, verdicts are drawn at
 * random, a confirmation round repeats the final bracket's probes,
 * and every probe has a twin whose tail differs from it only in the
 * dense unitary's matrix.
 */
std::vector<Circuit>
searchPrograms(const Circuit &suspect, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::pair<std::size_t, std::size_t>> probes;
    std::size_t lo = 0;
    std::size_t hi = suspect.size();
    probes.emplace_back(lo, hi);
    while (hi - lo > 1) {
        const std::size_t mid = lo + (hi - lo) / 2;
        probes.emplace_back(lo, mid);
        if (rng.bernoulli(0.5))
            hi = mid;
        else
            lo = mid;
    }
    probes.emplace_back(lo, lo);
    probes.emplace_back(lo, hi);

    std::vector<Circuit> programs;
    for (const auto &[floor, boundary] : probes) {
        const std::uint64_t tail_seed = seed * 1000 + boundary;
        programs.push_back(probeProgram(suspect, floor, boundary,
                                        tail_seed, tail_seed));
        programs.push_back(probeProgram(suspect, floor, boundary,
                                        tail_seed, tail_seed + 7));
    }
    return programs;
}

runtime::EnsembleSpec
endSpec(const Circuit &program, runtime::EnsembleMode mode,
        std::uint64_t seed)
{
    runtime::EnsembleSpec spec;
    spec.breakpoint = kEnd;
    for (unsigned q = 0; q < program.numQubits(); ++q)
        if ((seed >> q) & 1 || q == 0)
            spec.qubits.push_back(q);
    spec.shots = 96;
    spec.mode = mode;
    spec.seed = seed;
    return spec;
}

/**
 * Gather every program on engines without a store, then on engines
 * sharing one store per thread count, and compare.
 */
void
expectStoreMatchesStoreFree(const std::vector<Circuit> &programs,
                            runtime::EnsembleMode mode)
{
    std::vector<runtime::EnsembleSpec> specs;
    std::vector<std::vector<std::uint64_t>> trials;
    for (std::size_t i = 0; i < programs.size(); ++i) {
        specs.push_back(endSpec(programs[i], mode, 0x5107e + i));
        runtime::EnsembleEngine engine(programs[i], 1);
        trials.push_back(engine.gather(specs[i]));
    }

#if QSA_OBS_ENABLED
    std::map<std::string, std::int64_t> serial_work;
#endif
    for (const unsigned threads : {1u, 4u, 0u}) {
        obs::Registry::reset();
        runtime::CheckpointStore store;
        for (std::size_t i = 0; i < programs.size(); ++i) {
            runtime::EnsembleEngine engine(
                programs[i], threads, sharing(store));
            EXPECT_EQ(engine.gather(specs[i]), trials[i])
                << "program " << i << " threads=" << threads;
            EXPECT_LE(store.bytes(), runtime::CheckpointStore::kBudgetBytes);
        }
#if QSA_OBS_ENABLED
        const auto work = workCounters();
        EXPECT_GT(work.count("runtime.checkpoint.hits")
                      ? work.at("runtime.checkpoint.hits")
                      : 0,
                  0)
            << "threads=" << threads;
        if (threads == 1)
            serial_work = work;
        else
            EXPECT_EQ(work, serial_work) << "threads=" << threads;
#endif
    }
}

TEST(CheckpointEngine, ResimulateMatchesStoreFreeEngines)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE("program seed " + std::to_string(seed));
        const Circuit suspect = suspectProgram(seed, 3 + seed % 3);
        expectStoreMatchesStoreFree(searchPrograms(suspect, seed),
                                    runtime::EnsembleMode::Resimulate);
    }
}

TEST(CheckpointEngine, SampleFinalStateMatchesStoreFreeEngines)
{
    for (std::uint64_t seed = 11; seed <= 18; ++seed) {
        SCOPED_TRACE("program seed " + std::to_string(seed));
        const Circuit suspect = suspectProgram(seed, 3 + seed % 3);
        expectStoreMatchesStoreFree(
            searchPrograms(suspect, seed),
            runtime::EnsembleMode::SampleFinalState);
    }
}

TEST(CheckpointEngine, MixedModesShareOneStore)
{
    // Heads stored by Resimulate gathers serve SampleFinalState gathers
    // and the other way round.
    const Circuit suspect = suspectProgram(21, 4);
    const auto programs = searchPrograms(suspect, 21);
    runtime::CheckpointStore store;
    for (std::size_t i = 0; i < programs.size(); ++i) {
        const auto mode = i % 2 ? runtime::EnsembleMode::Resimulate
                                : runtime::EnsembleMode::SampleFinalState;
        const auto spec = endSpec(programs[i], mode, 0x3a11 + i);
        runtime::EnsembleEngine plain(programs[i], 1);
        runtime::EnsembleEngine shared(programs[i], 1,
                                       sharing(store));
        EXPECT_EQ(shared.gather(spec), plain.gather(spec)) << i;
    }
    EXPECT_GT(store.size(), 0u);
}

TEST(CheckpointEngine, UnitaryMatricesAreHashedByContent)
{
    // Two programs identical up to the contents of one dense unitary
    // (same matrix id): the second must not resume past it.
    Circuit a(3);
    Circuit b(3);
    for (Circuit *circ : {&a, &b}) {
        ProgramGenerator gen(*circ, 5);
        testgen::prologue(*circ, 0);
        gen.appendGates(0, 3, 12);
    }
    ProgramGenerator ma(a, 100);
    ProgramGenerator mb(b, 101);
    a.unitary(ma.randomUnitary(4), {0, 2});
    b.unitary(mb.randomUnitary(4), {0, 2});
    for (Circuit *circ : {&a, &b}) {
        circ->h(1);
        circ->breakpoint(kEnd);
    }
    for (const auto mode : {runtime::EnsembleMode::Resimulate,
                            runtime::EnsembleMode::SampleFinalState}) {
        runtime::CheckpointStore store;
        const auto spec = endSpec(b, mode, 0x7);
        runtime::EnsembleEngine first(a, 1,
                                      sharing(store));
        (void)first.gather(spec);
        runtime::EnsembleEngine plain(b, 1);
        runtime::EnsembleEngine shared(b, 1,
                                       sharing(store));
        EXPECT_EQ(shared.gather(spec), plain.gather(spec));
    }
}

// --- Oracle ------------------------------------------------------------------

void
expectSamePredicates(const locate::PredicateOracle &got,
                     const locate::PredicateOracle &want,
                     const std::string &what)
{
    EXPECT_EQ(got.sampled(), want.sampled()) << what;
    ASSERT_EQ(got.entries().size(), want.entries().size()) << what;
    auto it = want.entries().begin();
    for (const auto &[key, pred] : got.entries()) {
        EXPECT_EQ(key, it->first) << what;
        EXPECT_EQ(pred.kind, it->second.kind) << what;
        EXPECT_EQ(pred.expectedValue, it->second.expectedValue) << what;
        EXPECT_EQ(pred.expectedProbs, it->second.expectedProbs) << what;
        EXPECT_EQ(pred.referenceCounts, it->second.referenceCounts)
            << what;
        EXPECT_EQ(pred.referenceTrials, it->second.referenceTrials)
            << what;
        ++it;
    }
}

circuit::QubitRegister
allQubits(const Circuit &circ)
{
    std::vector<unsigned> qubits(circ.numQubits());
    for (unsigned q = 0; q < circ.numQubits(); ++q)
        qubits[q] = q;
    return circuit::QubitRegister("all", qubits);
}

TEST(CheckpointOracle, ResumedExactDerivationEqualsFromScratch)
{
    locate::OracleOptions exact;
    exact.mode = locate::OracleMode::Exact;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const Circuit reference =
            testgen::monolithicProgram(seed, 3 + seed % 2, 24);
        const auto reg = allQubits(reference);
        locate::BranchMixture mixture;
        Rng rng(seed * 31);
        for (int round = 0; round < 12; ++round) {
            const std::size_t b = rng.uniformInt(reference.size() + 1);
            // Floors above b too: the derivation must never advance
            // the mixture past the boundary it records.
            mixture.target = rng.uniformInt(reference.size() + 1);
            const std::size_t before = mixture.boundary;
            const locate::PredicateOracle resumed(
                reference, reg, 7, {b}, exact, &mixture);
            const locate::PredicateOracle fresh(reference, reg, 7, {b},
                                                exact);
            const std::string what = "seed " + std::to_string(seed) +
                                     " boundary " + std::to_string(b);
            expectSamePredicates(resumed, fresh, what);
            EXPECT_LE(mixture.boundary, std::max(before, b)) << what;
            EXPECT_GE(mixture.boundary, before) << what;
        }
        EXPECT_TRUE(mixture.kept);
        EXPECT_GT(mixture.boundary, 0u);
    }
}

/** Thirteen coin measurements: the exact mixture overflows at the
 *  last one (2^13 branches past the 4096 cap). */
Circuit
overflowingProgram()
{
    Circuit circ(2);
    for (int round = 0; round < 13; ++round) {
        circ.h(0);
        circ.measureQubits({0}, "coin" + std::to_string(round));
        circ.ry(1, 0.1 + 0.07 * round);
        circ.conditionLast("coin" + std::to_string(round), 1);
    }
    circ.h(1);
    return circ;
}

TEST(CheckpointOracle, AutoOverflowBeforeTheFloorStillSamples)
{
    const Circuit reference = overflowingProgram();
    const auto reg = allQubits(reference);
    locate::OracleOptions automatic;
    automatic.mode = locate::OracleMode::Auto;
    automatic.sampleTrials = 512;
    const std::size_t b = reference.size();

    // The floor lies past the overflowing measurement: advancing the
    // mixture there overflows, and the derivation falls back.
    locate::BranchMixture mixture;
    mixture.target = reference.size() - 1;
    const locate::PredicateOracle resumed(reference, reg, 9, {b},
                                          automatic, &mixture);
    const locate::PredicateOracle fresh(reference, reg, 9, {b},
                                        automatic);
    EXPECT_TRUE(resumed.sampled());
    expectSamePredicates(resumed, fresh, "overflow before the floor");
    EXPECT_FALSE(mixture.kept);

    // A dropped mixture derives from scratch from then on.
    const locate::PredicateOracle again(reference, reg, 9, {b},
                                        automatic, &mixture);
    expectSamePredicates(again, fresh, "after the drop");

    // A floor below the overflow keeps the mixture; the overflow past
    // it still falls back to the same sampled predicates.
    locate::BranchMixture low;
    low.target = 8;
    const locate::PredicateOracle past(reference, reg, 9, {b},
                                       automatic, &low);
    expectSamePredicates(past, fresh, "overflow past the floor");
    EXPECT_TRUE(low.kept);
    EXPECT_EQ(low.boundary, 8u);
}

/**
 * Predicates of `got` and `want` at every wanted boundary and frame:
 * an oracle whose pass ended at its last wanted boundary against a
 * pass over the whole reference.
 */
void
expectSameWantedPredicates(const locate::PredicateOracle &got,
                           const locate::PredicateOracle &want,
                           const std::vector<std::size_t> &wanted,
                           const std::vector<locate::Frame> &frames,
                           const std::string &what)
{
    EXPECT_EQ(got.sampled(), want.sampled()) << what;
    for (const std::size_t b : wanted) {
        for (const locate::Frame frame : frames) {
            const auto &pred = got.at(b, frame);
            const auto &other = want.at(b, frame);
            EXPECT_EQ(pred.kind, other.kind) << what << " b=" << b;
            EXPECT_EQ(pred.expectedValue, other.expectedValue) << what;
            EXPECT_EQ(pred.expectedProbs, other.expectedProbs) << what;
            EXPECT_EQ(pred.referenceCounts, other.referenceCounts) << what;
            EXPECT_EQ(pred.referenceTrials, other.referenceTrials) << what;
        }
    }
}

TEST(CheckpointOracle, PassesEndingAtTheirLastBoundaryMatchFullPasses)
{
    // Each wanted set below ends before the reference does; adding the
    // reference's end to it makes the same derivation walk the whole
    // program. Every predicate (and purity) the short pass records
    // must equal the long pass's, for exact, sampled and overlap
    // oracles.
    locate::OracleOptions exact;
    exact.mode = locate::OracleMode::Exact;
    locate::OracleOptions sampled;
    sampled.mode = locate::OracleMode::Sampled;
    sampled.sampleTrials = 256;
    const std::vector<locate::Frame> frames{locate::Frame::Z,
                                            locate::Frame::X};
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const Circuit reference =
            testgen::monolithicProgram(seed, 3 + seed % 2, 24);
        const auto reg = allQubits(reference);
        const std::size_t end = reference.size();
        Rng rng(seed * 17);
        for (int round = 0; round < 4; ++round) {
            std::vector<std::size_t> wanted;
            for (int i = 0; i < 3; ++i)
                wanted.push_back(rng.uniformInt(end));
            std::vector<std::size_t> full = wanted;
            full.push_back(end);
            const std::string what = "seed " + std::to_string(seed) +
                                     " round " + std::to_string(round);
            for (const auto &options : {exact, sampled}) {
                expectSameWantedPredicates(
                    locate::PredicateOracle(reference, reg, 11, &wanted,
                                            frames, options),
                    locate::PredicateOracle(reference, reg, 11, &full,
                                            frames, options),
                    wanted, frames,
                    what + " " + locate::oracleModeName(options.mode));
            }
            const std::vector<unsigned> comparator{0, 1};
            const locate::OverlapOracle short_pass(reference, comparator,
                                                   wanted);
            const locate::OverlapOracle long_pass(reference, comparator,
                                                  full);
            for (const std::size_t b : wanted)
                EXPECT_EQ(short_pass.purityAt(b), long_pass.purityAt(b))
                    << what << " b=" << b;
        }
    }
}

TEST(CheckpointOracle, OverflowPastTheLastWantedBoundaryDerivesExactly)
{
    // The mixture overflows at the 13th coin; boundary 8 lies after
    // the third. A pass that wants only boundary 8 ends there, so it
    // derives exactly: Exact no longer throws DeriveError and Auto no
    // longer falls back to sampling.
    const Circuit reference = overflowingProgram();
    const auto reg = allQubits(reference);
    locate::OracleOptions exact;
    exact.mode = locate::OracleMode::Exact;
    locate::OracleOptions automatic;
    automatic.mode = locate::OracleMode::Auto;
    automatic.sampleTrials = 512;

    const locate::PredicateOracle pinned(reference, reg, 9, {8}, exact);
    EXPECT_FALSE(pinned.sampled());
    const locate::PredicateOracle fallback_free(reference, reg, 9, {8},
                                                automatic);
    EXPECT_FALSE(fallback_free.sampled());
    expectSamePredicates(fallback_free, pinned, "auto at boundary 8");
    EXPECT_EQ(pinned.at(8).kind, assertions::AssertionKind::Distribution);

    // Wanting the end as well still overflows, as before.
    const std::vector<std::size_t> with_end{8, reference.size()};
    EXPECT_THROW(locate::PredicateOracle(reference, reg, 9, with_end, exact),
                 DeriveError);
    EXPECT_TRUE(
        locate::PredicateOracle(reference, reg, 9, with_end, automatic)
            .sampled());
}

// --- Budget ------------------------------------------------------------------

TEST(CheckpointBudget, StoredBytesStayWithinTheBudget)
{
    runtime::CheckpointStore store;
    Rng rng(3);
    for (std::uint64_t i = 0; i < 64; ++i) {
        const unsigned n = 8 + static_cast<unsigned>(rng.uniformInt(9));
        store.insert(runtime::CheckpointKey{n, i + 1, i}, sim::StateVector(n),
                     0);
        EXPECT_LE(store.bytes(), runtime::CheckpointStore::kBudgetBytes);
    }
    // A 16-qubit state is exactly the budget: it fits alone.
    store.insert(runtime::CheckpointKey{16, 1, 99}, sim::StateVector(16), 0);
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.bytes(), runtime::CheckpointStore::kBudgetBytes);
}

TEST(CheckpointBudget, SeventeenQubitStatesAreNeverStored)
{
    runtime::CheckpointStore store;
    store.insert(runtime::CheckpointKey{17, 1, 1}, sim::StateVector(17), 0);
    EXPECT_EQ(store.size(), 0u);

    // Through an engine: the head state is simulated, not stored.
    Circuit circ(17);
    circ.h(0);
    circ.cnot(0, 16);
    circ.breakpoint("mark");
    circ.h(3);
    circ.breakpoint(kEnd);
    runtime::EnsembleEngine engine(circ, 1,
                                   sharing(store));
    runtime::EnsembleEngine plain(circ, 1);
    const auto spec =
        endSpec(circ, runtime::EnsembleMode::SampleFinalState, 0x17);
    EXPECT_EQ(engine.gather(spec), plain.gather(spec));
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(store.bytes(), 0u);
}

// --- Locator: pinned trajectories --------------------------------------------
//
// The brackets, probe counts and shots below are those the locator
// produced before probes shared a checkpoint store (and before the
// engine stopped fusing gates); the store must not move them. The
// shots of qpe/flipped-phase and qpe/wrong-feedback come from a
// store-free run after Resimulate's readout became one CDF draw per
// trial, which moved their escalations.

struct Pinned
{
    std::size_t lastPassing;
    std::size_t firstFailing;
    std::size_t probes;
    std::size_t shots;
};

/** A (suspect, reference) pair with a known injected defect. */
struct Fixture
{
    std::string name;
    Circuit suspect;
    Circuit reference;
    locate::LocateConfig config;
    Pinned pinned;
};

locate::LocateConfig
mirrorConfig()
{
    locate::LocateConfig cfg;
    cfg.ensembleSize = 64;
    cfg.maxEnsembleSize = 1024;
    return cfg;
}

locate::LocateConfig
resimConfig()
{
    locate::LocateConfig cfg = mirrorConfig();
    cfg.mode = assertions::EnsembleMode::Resimulate;
    return cfg;
}

/** A fixture whose two programs come from one build function; the
 *  suspect is built with its defect. */
template <typename Build>
Fixture
bothHalves(const std::string &name, Build build, locate::LocateConfig cfg,
     Pinned pinned)
{
    Fixture fx{name, Circuit(), Circuit(), cfg, pinned};
    build(fx.suspect, true);
    build(fx.reference, false);
    return fx;
}

std::vector<Fixture>
mirrorFixtures()
{
    std::vector<Fixture> out;
    out.push_back(bothHalves(
        "flipped-rotation",
        [](Circuit &circ, bool buggy) {
            const auto ctrl = circ.addRegister("ctrl", 1);
            const auto b = circ.addRegister("b", 5);
            circ.prepRegister(ctrl, 1);
            circ.prepRegister(b, 12);
            algo::qft(circ, b);
            bugs::phiAddDecomposed(
                circ, b, 13, ctrl[0],
                buggy ? bugs::Table1Variant::IncorrectFlipped
                      : bugs::Table1Variant::CorrectDropA);
            algo::iqft(circ, b);
        },
        mirrorConfig(), {21, 22, 8, 1472}));
    const std::pair<bugs::IterationBug, Pinned> iterations[] = {
        {bugs::IterationBug::InnerOffByOne, {22, 23, 6, 1344}},
        {bugs::IterationBug::WrongAngleDenominator, {20, 21, 6, 1344}},
        {bugs::IterationBug::EndianSwapped, {20, 21, 6, 1344}},
    };
    for (const auto &[bug, pinned] : iterations) {
        out.push_back(bothHalves(
            "iteration/" + bugs::iterationBugName(bug),
            [bug = bug](Circuit &circ, bool buggy) {
                const auto b = circ.addRegister("b", 5);
                circ.prepRegister(b, 12);
                algo::qft(circ, b);
                if (buggy)
                    bugs::phiAddIterationBug(circ, b, 13, {}, bug);
                else
                    algo::phiAdd(circ, b, 13);
                algo::iqft(circ, b);
            },
            mirrorConfig(), pinned));
    }
    const auto modular = [](const std::string &name, unsigned b_value,
                            Pinned pinned, auto body) {
        return bothHalves(
            name,
            [b_value, body](Circuit &circ, bool buggy) {
                const auto ctrl = circ.addRegister("ctrl", 1);
                const auto x = circ.addRegister("x", 3);
                const auto b = circ.addRegister("b", 4);
                const auto anc = circ.addRegister("anc", 1);
                circ.prepRegister(ctrl, 1);
                circ.prepRegister(x, 6);
                circ.prepRegister(b, b_value);
                circ.prepRegister(anc, 0);
                circ.h(ctrl[0]);
                body(circ, buggy, ctrl[0], x, b, anc[0]);
            },
            mirrorConfig(), pinned);
    };
    out.push_back(modular(
        "misrouted-control", 5, {103, 104, 11, 2624},
        [](Circuit &circ, bool buggy, unsigned ctrl, const auto &x,
           const auto &b, unsigned anc) {
            if (buggy)
                bugs::cModMulMisrouted(circ, ctrl, x, b, 3, 7, anc);
            else
                algo::cModMul(circ, ctrl, x, b, 3, 7, anc);
        }));
    out.push_back(modular(
        "broken-mirror", 0, {283, 284, 9, 1536},
        [](Circuit &circ, bool buggy, unsigned ctrl, const auto &x,
           const auto &b, unsigned anc) {
            if (buggy)
                bugs::cUaBrokenMirror(circ, ctrl, x, b, 3, 5, 7, anc);
            else
                algo::cUa(circ, ctrl, x, b, 3, 5, 7, anc);
        }));
    out.push_back(modular(
        "wrong-classical-input", 0, {285, 286, 9, 1536},
        [](Circuit &circ, bool buggy, unsigned ctrl, const auto &x,
           const auto &b, unsigned anc) {
            algo::cUa(circ, ctrl, x, b, 3, buggy ? 4 : 5, 7, anc);
        }));
    out.push_back(bothHalves(
        "forgot-negate",
        [](Circuit &circ, bool buggy) {
            const auto b = circ.addRegister("b", 5);
            circ.prepRegister(b, 12);
            algo::qft(circ, b);
            algo::phiAdd(circ, b, 13);
            if (buggy)
                bugs::phiSubForgotNegate(circ, b, 13, {});
            else
                algo::phiAdd(circ, b, 13, {}, -1);
            algo::iqft(circ, b);
        },
        mirrorConfig(), {30, 31, 6, 1344}));
    return out;
}

/** The measured teleportation fixture's defects. */
enum class TeleportBug
{
    None,
    WrongInitialValue,
    FlippedPayload,
    MisroutedCorrection,
    BrokenMirror,
    WrongCondValue,
};

void
measuredTeleport(Circuit &circ, TeleportBug bug)
{
    constexpr double theta = 1.1;
    constexpr double phi = 0.6;
    const auto msg = circ.addRegister("msg", 1);
    const auto half = circ.addRegister("half", 1);
    const auto recv = circ.addRegister("recv", 1);
    circ.prepZ(msg[0], 0);
    circ.prepZ(half[0], 0);
    circ.prepZ(recv[0], bug == TeleportBug::WrongInitialValue ? 1 : 0);
    circ.ry(msg[0], bug == TeleportBug::FlippedPayload ? -theta : theta);
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
    circ.ry(recv[0], bug == TeleportBug::BrokenMirror ? theta : -theta);
}

/** The semiclassical phase-estimation fixture's defects. */
enum class QpeBug
{
    None,
    WrongEigenstate,
    FlippedPhase,
    WrongFeedback,
};

void
semiclassicalQpe(Circuit &circ, QpeBug bug)
{
    constexpr unsigned t = 3;
    const double phase = 1.0 / 3.0;
    const auto sys = circ.addRegister("sys", 1);
    const auto anc = circ.addRegister("anc", 1);
    circ.prepZ(sys[0], bug == QpeBug::WrongEigenstate ? 0 : 1);
    circ.prepZ(anc[0], 0);
    for (unsigned l = t; l >= 1; --l) {
        if (l < t)
            circ.prepZ(anc[0], 0);
        circ.h(anc[0]);
        const double sign = bug == QpeBug::FlippedPhase ? -1.0 : 1.0;
        circ.cphase(anc[0], sys[0],
                    sign * 2.0 * M_PI * phase *
                        static_cast<double>(1u << (l - 1)));
        for (unsigned j = l + 1; j <= t; ++j) {
            const unsigned denom_pow =
                bug == QpeBug::WrongFeedback ? j - l : j - l + 1;
            circ.phase(anc[0], -2.0 * M_PI /
                                   static_cast<double>(1u << denom_pow));
            circ.conditionLast("m_" + std::to_string(j), 1);
        }
        circ.h(anc[0]);
        circ.measureQubits({anc[0]}, "m_" + std::to_string(l));
    }
}

std::vector<Fixture>
measureFixtures()
{
    std::vector<Fixture> out;
    const std::tuple<TeleportBug, const char *, Pinned> teleports[] = {
        {TeleportBug::WrongInitialValue, "wrong-initial-value",
         {2, 3, 5, 1344}},
        {TeleportBug::FlippedPayload, "flipped-payload", {3, 4, 5, 1344}},
        {TeleportBug::MisroutedCorrection, "misrouted-correction",
         {11, 12, 4, 2432}},
        {TeleportBug::BrokenMirror, "broken-mirror", {14, 15, 2, 2176}},
        {TeleportBug::WrongCondValue, "wrong-cond-value",
         {11, 12, 4, 2432}},
    };
    for (const auto &[bug, name, pinned] : teleports) {
        out.push_back(bothHalves(
            std::string("teleport/") + name,
            [bug = bug](Circuit &circ, bool buggy) {
                measuredTeleport(circ, buggy ? bug : TeleportBug::None);
            },
            resimConfig(), pinned));
    }
    const std::tuple<QpeBug, const char *, Pinned> qpes[] = {
        {QpeBug::WrongEigenstate, "wrong-eigenstate", {0, 1, 6, 1408}},
        {QpeBug::FlippedPhase, "flipped-phase", {8, 9, 7, 4800}},
        {QpeBug::WrongFeedback, "wrong-feedback", {15, 16, 6, 4928}},
    };
    for (const auto &[bug, name, pinned] : qpes) {
        out.push_back(bothHalves(
            std::string("qpe/") + name,
            [bug = bug](Circuit &circ, bool buggy) {
                semiclassicalQpe(circ, buggy ? bug : QpeBug::None);
            },
            resimConfig(), pinned));
    }
    return out;
}

/** Table 3's wrong modular inverse (12 for 13), full and
 *  semiclassical Shor. */
std::vector<Fixture>
paperFixtures()
{
    algo::ShorConfig good;
    algo::ShorConfig bad;
    bad.pairs = algo::shorClassicalInputs(7, 15, 3);
    bad.pairs[0].second = 12;

    std::vector<Fixture> out;
    out.push_back(Fixture{"shor/wrong-inverse",
                          algo::buildShorProgram(bad).circuit,
                          algo::buildShorProgram(good).circuit,
                          mirrorConfig(),
                          {568, 569, 14, 2816}});
    locate::LocateConfig semi = resimConfig();
    semi.ensembleSize = 32;
    semi.maxEnsembleSize = 256;
    out.push_back(Fixture{"semiclassical-shor/wrong-inverse",
                          algo::buildSemiclassicalShorProgram(bad).circuit,
                          algo::buildSemiclassicalShorProgram(good).circuit,
                          semi,
                          {2338, 2339, 10, 1088}});
    return out;
}

/**
 * Every fixture keeps its pinned bracket, probes and shots, and, under
 * QSA_OBS, resumes from the store at least once; a fixture named in
 * `resumed` also resumes exactly that many instructions
 * (runtime.checkpoint.resumed_instructions).
 */
void
expectPinned(const std::vector<Fixture> &fixtures,
             const std::map<std::string, std::int64_t> &resumed = {})
{
    for (const Fixture &fx : fixtures) {
        obs::Registry::reset();
        const locate::BugLocator locator(fx.suspect, fx.reference,
                                         fx.config);
        const auto report = locator.locate();
        ASSERT_TRUE(report.bugFound) << fx.name;
        EXPECT_EQ(report.lastPassing, fx.pinned.lastPassing) << fx.name;
        EXPECT_EQ(report.firstFailing, fx.pinned.firstFailing) << fx.name;
        EXPECT_EQ(report.probes.size(), fx.pinned.probes) << fx.name;
        EXPECT_EQ(report.totalMeasurements, fx.pinned.shots) << fx.name;
#if QSA_OBS_ENABLED
        EXPECT_GT(counter("runtime.checkpoint.hits"), 0) << fx.name;
        const auto pin = resumed.find(fx.name);
        if (pin != resumed.end()) {
            EXPECT_EQ(counter("runtime.checkpoint.resumed_instructions"),
                      pin->second)
                << fx.name;
        }
#else
        (void)resumed;
#endif
    }
}

TEST(CheckpointLocator, MirrorFixturesKeepTheirTrajectories)
{
    expectPinned(mirrorFixtures());
}

TEST(CheckpointLocator, MeasureFixturesKeepTheirTrajectories)
{
    expectPinned(measureFixtures());
}

TEST(CheckpointLocator, PaperWrongInversePairsKeepTheirTrajectories)
{
    // Full Shor resumes more than its heads alone would: each probe
    // also marks the midpoint the search probes next if it fails, and
    // its paired reference head resumes from the suspect's entries
    // (the floor's, below the defect) or from those an earlier
    // reference head stored at the same marks. Semiclassical Shor
    // builds one plan per probe, not two: a dual probe's pre-unwind
    // breakpoint is a tap of its walk.
    expectPinned(paperFixtures(), {{"shor/wrong-inverse", 18297},
                                   {"semiclassical-shor/wrong-inverse",
                                    8082}});
}

} // anonymous namespace
