/**
 * @file
 * Programs the benchmark runs: the paper's full-size programs, the six
 * bug-localization fixtures of the taxonomy, and the generator of the
 * serve request mix. Everything here is a pure function of its
 * arguments, so a workload seed fixes every input.
 */

#ifndef QSA_PERFBENCH_FIXTURES_HH
#define QSA_PERFBENCH_FIXTURES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"
#include "qsa/qsa.hh"

namespace perfbench
{

/** A (suspect, reference) program pair with its injected defect. */
struct Pair
{
    std::string fixture;
    qsa::circuit::Circuit suspect;
    qsa::circuit::Circuit reference;

    /** Instruction count of the register-preparation preamble. */
    std::size_t prepared = 0;
};

/**
 * True when the instruction range [begin, end) of the suspect holds an
 * instruction that differs from the reference at the same index — the
 * check that a localization bracketed the injected defect rather than
 * an instruction both programs share.
 */
bool bracketHoldsDefect(const Pair &pair, std::size_t begin,
                        std::size_t end);

/** Variant knobs of the taxonomy fixtures (serve draws fresh ones). */
struct Variant
{
    /** 0 flipped-adder, 1 misrouted-control, 2 wrong-inverse,
     *  3 measured-teleport, 4 zframe-teleport, 5 wide-measure. */
    int fixture = 0;

    /** Prepared register values (fixture-specific meaning). */
    std::uint64_t x = 0;
    std::uint64_t b = 0;

    /** Multiplier constant (wrong-inverse). */
    std::uint64_t a = 3;

    /** Teleported state angles (teleport fixtures). */
    double theta = 1.1;
    double phi = 0.6;
};

constexpr int kNumFixtures = 6;

/** Fixture name as bench_locate labels it. */
const char *fixtureName(int fixture);

/** The bench_locate fixture with its canonical constants. */
Variant canonicalVariant(int fixture);

/** Build a fixture pair for a variant. */
Pair buildPair(const Variant &variant);

/**
 * One localization configuration: a probe family in an ensemble
 * mode, optionally scoped to a register and an oracle mode.
 */
struct LocateSetup
{
    std::string name;
    qsa::assertions::EnsembleMode mode =
        qsa::assertions::EnsembleMode::SampleFinalState;
    qsa::locate::ProbeFamily family =
        qsa::locate::ProbeFamily::SegmentMirror;

    /** Register the probes are scoped to ("" = full space). */
    std::string reg;

    qsa::locate::OracleMode oracle = qsa::locate::OracleMode::Auto;
};

/**
 * The families each taxonomy fixture runs with: segment mirrors in
 * both ensemble modes on the unitary fixtures, Resimulate mirrors past
 * measurement, the phase-sensitive families on the z-frame teleport's
 * receiver, and the sampled oracle on the wide-measure program.
 */
std::vector<LocateSetup> setupsFor(int fixture);

/** The paper's programs, built once per set-up. */
struct PaperPrograms
{
    qsa::algo::ShorProgram shorGood;
    Pair shor;
    qsa::algo::SemiclassicalShorProgram semiBad;
    Pair semiclassical;
    qsa::algo::GroverProgram grover;

    /** H2 Trotter evolution and its exact final marginal. */
    qsa::circuit::Circuit h2;
    qsa::circuit::QubitRegister h2Sys;
    std::size_t h2Prepared = 0;
    std::vector<double> h2Final;
};

PaperPrograms buildPaperPrograms();

/**
 * One serve request of the generated mix, without its programs: the
 * request line (tens of KiB of QASM) is rendered when it is sent.
 */
struct ServeRequest
{
    /** Every member but "circuit" and "reference". */
    qsa::json::Value body;

    /** "circuit" carries the pair's suspect (else its reference). */
    bool sendsSuspect = false;

    /** "locate", "check", "lint" or "analyze". */
    std::string command;

    /** Localization configuration or checked fixture ("" for lint and
     *  analyze). */
    std::string config;

    /** Index into the generated pairs (locate and check). */
    int pair = -1;
};

/** The serve mix: its pairs and its request sequence. */
struct ServeMix
{
    std::vector<Pair> pairs;

    /** Each pair's (suspect, reference) as QASM text. */
    std::vector<std::pair<std::string, std::string>> qasm;

    std::vector<ServeRequest> requests;

    /** The request line sent for a request. */
    std::string line(const ServeRequest &req) const;

    /** Equal exactly for requests whose lines are equal. */
    std::string key(const ServeRequest &req) const;
};

/**
 * Draw `count` requests from `seed`: localizations over fresh or
 * repeated fixture variants (about half repeat an earlier pair, so the
 * oracle store both hits and misses), plan checks, and a small share
 * of lint / analyze. Requests come in shuffled decks that hold every
 * localization configuration once, so per-request averages vary
 * little from seed to seed.
 */
ServeMix generateServeMix(std::uint64_t seed, std::size_t count);

/** A localization request without its programs. */
qsa::json::Value locateBody(const LocateSetup &setup, std::uint64_t seed);

/** A request line: the body plus the programs' QASM text. */
std::string renderRequest(qsa::json::Value body, const std::string &circuit,
                          const std::string *reference);

} // namespace perfbench

#endif // QSA_PERFBENCH_FIXTURES_HH
