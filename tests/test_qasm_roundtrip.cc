/**
 * @file
 * QASM round-trip fixed-point and Circuit::contentHash properties,
 * plus the positioned-error contract of circuit::QasmError.
 *
 * The serving layer (qsa::serve) leans on all three: circuits travel
 * the wire as QASM (so emission∘parse must be a fixed point), the
 * oracle store is content-addressed by contentHash (so the hash must
 * be stable under re-emission and distinct across defect variants),
 * and a daemon fed malformed remote text must get a positioned error
 * back.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "qsa/qsa.hh"

#include "expect_throw.hh"
#include "program_generator.hh"

namespace
{

using namespace qsa;
using circuit::Circuit;

/** ContentHash.PinnedAcrossPlatforms's program, hashed. */
constexpr std::uint64_t kPinnedContentHash = 0xa289bee8df57dcccULL;
constexpr std::uint64_t kPinnedChainHash = 0x5edd0ad46278b2adULL;

/** Every circuit the examples run as the *correct* variant (the same
 *  catalogue tests/test_analyze.cc lints clean). */
std::vector<std::pair<std::string, Circuit>>
cleanReferenceCircuits()
{
    std::vector<std::pair<std::string, Circuit>> refs;

    refs.emplace_back("bell", algo::buildBellProgram());
    refs.emplace_back("teleport",
                      algo::buildTeleportProgram(0.3, 1.1).circuit);
    refs.emplace_back("superdense",
                      algo::buildSuperdenseProgram(0b10).circuit);

    algo::GroverConfig grover;
    grover.degree = 3;
    grover.target = 0b101;
    refs.emplace_back("grover-gf2",
                      algo::buildGroverProgram(grover).circuit);
    refs.emplace_back("grover-marked",
                      algo::buildMarkedValueGrover(3, 0b110).circuit);

    refs.emplace_back("shor-15", algo::buildShorProgram().circuit);
    refs.emplace_back("semiclassical-shor",
                      algo::buildSemiclassicalShorProgram().circuit);

    Circuit adder;
    const auto b = adder.addRegister("b", 3);
    adder.prepRegister(b, 2);
    algo::qft(adder, b);
    algo::phiAdd(adder, b, 3);
    algo::iqft(adder, b);
    adder.measure(b, "sum");
    refs.emplace_back("qft-adder", std::move(adder));

    return refs;
}

// --- round-trip fixed point ------------------------------------------------

TEST(QasmRoundTrip, EmissionIsAFixedPointOnEveryCleanReference)
{
    // toQasm∘fromQasm is idempotent on emitted text: one round trip
    // may normalise (measure grouping, register naming), further
    // trips must not change a byte.
    for (const auto &[name, circ] : cleanReferenceCircuits()) {
        const std::string once = circuit::toQasm(circ);
        const std::string twice =
            circuit::toQasm(circuit::fromQasm(once));
        const std::string thrice =
            circuit::toQasm(circuit::fromQasm(twice));
        EXPECT_EQ(once, twice) << name;
        EXPECT_EQ(twice, thrice) << name;
    }
}

TEST(QasmRoundTrip, ManyNamesRoundTripAndStayChecked)
{
    // Twelve registers, labels and breakpoints round-trip, and the
    // duplicate and unknown-name checks fire on the twelfth.
    Circuit circ;
    std::vector<circuit::QubitRegister> regs;
    for (int r = 0; r < 12; ++r)
        regs.push_back(circ.addRegister("r" + std::to_string(r), 1));
    for (int r = 0; r < 12; ++r) {
        circ.h(regs[r][0]);
        circ.measure(regs[r], "m" + std::to_string(r));
        circ.breakpoint("b" + std::to_string(r));
    }
    circ.x(regs[0][0]);
    circ.conditionLast("m11", 1);
    const std::string text = circuit::toQasm(circ);
    EXPECT_EQ(circuit::fromQasm(text).contentHash(), circ.contentHash());
    EXPECT_THROW_MESSAGE(circuit::fromQasm(text + "qreg r11[1];\n"),
                         circuit::QasmError,
                         "duplicate register name 'r11'");
    EXPECT_THROW_MESSAGE(
        circuit::fromQasm(text + "// qsa.breakpoint b11\n"),
        circuit::QasmError, "duplicate breakpoint label 'b11'");
    EXPECT_THROW_MESSAGE(circuit::fromQasm(text + "h r12[0];\n"),
                         circuit::QasmError, "unknown register 'r12'");
    EXPECT_THROW_MESSAGE(
        circuit::fromQasm(text + "if(m_m12==1) x r0[0];\n"),
        circuit::QasmError, "unknown creg in condition 'm_m12'");
}

// --- contentHash -----------------------------------------------------------

TEST(ContentHash, StableUnderReEmission)
{
    // The oracle store's invalidation rule: the hash is a property of
    // circuit *content*, so wire transport (emit, parse) must
    // preserve it.
    for (const auto &[name, circ] : cleanReferenceCircuits()) {
        const Circuit parsed =
            circuit::fromQasm(circuit::toQasm(circ));
        const Circuit reparsed =
            circuit::fromQasm(circuit::toQasm(parsed));
        EXPECT_EQ(parsed.contentHash(), reparsed.contentHash())
            << name;
        EXPECT_EQ(parsed.contentHash(), parsed.contentHash()) << name;
    }
}

TEST(ContentHash, DistinctAcrossReferenceCatalogue)
{
    std::set<std::uint64_t> hashes;
    for (const auto &[name, circ] : cleanReferenceCircuits()) {
        const auto [it, fresh] = hashes.insert(circ.contentHash());
        EXPECT_TRUE(fresh) << "hash collision at '" << name << "'";
    }
}

TEST(ContentHash, DistinguishesBuggyFromCleanVariants)
{
    // Every statically-visible taxonomy fixture: defect and fix must
    // content-address differently, or a warm store would serve a
    // certificate for the wrong program.
    for (const bugs::BugType type :
         {bugs::BugType::ConditionLabelTypo,
          bugs::BugType::MeasuredQubitReuse,
          bugs::BugType::EntangledReset}) {
        const bugs::StaticBugFixture fixture =
            bugs::staticBugFixture(type);
        EXPECT_NE(fixture.buggy.contentHash(),
                  fixture.clean.contentHash())
            << bugs::bugInfo(type).name;
    }
}

TEST(ContentHash, SensitiveToEveryEncodedField)
{
    Circuit base;
    const auto q = base.addRegister("q", 2);
    base.h(q[0]);
    base.rz(q[0], 0.25);
    base.cnot(q[0], q[1]);
    base.breakpoint("mid");
    const std::uint64_t h0 = base.contentHash();

    {
        Circuit c; // different angle
        const auto r = c.addRegister("q", 2);
        c.h(r[0]);
        c.rz(r[0], 0.75);
        c.cnot(r[0], r[1]);
        c.breakpoint("mid");
        EXPECT_NE(c.contentHash(), h0);
    }
    {
        Circuit c; // control/target swapped
        const auto r = c.addRegister("q", 2);
        c.h(r[0]);
        c.rz(r[0], 0.25);
        c.cnot(r[1], r[0]);
        c.breakpoint("mid");
        EXPECT_NE(c.contentHash(), h0);
    }
    {
        Circuit c; // different breakpoint label
        const auto r = c.addRegister("q", 2);
        c.h(r[0]);
        c.rz(r[0], 0.25);
        c.cnot(r[0], r[1]);
        c.breakpoint("midd");
        EXPECT_NE(c.contentHash(), h0);
    }
    {
        Circuit c; // different register name, same gates
        const auto r = c.addRegister("p", 2);
        c.h(r[0]);
        c.rz(r[0], 0.25);
        c.cnot(r[0], r[1]);
        c.breakpoint("mid");
        EXPECT_NE(c.contentHash(), h0);
    }
}

TEST(ContentHash, NegativeZeroAngleIsCanonical)
{
    // -0.0 and 0.0 are the same rotation; the hash must not split the
    // store on the sign of zero (emitters legitimately produce both).
    Circuit plus;
    const auto q1 = plus.addRegister("q", 1);
    plus.rz(q1[0], 0.0);
    Circuit minus;
    const auto q2 = minus.addRegister("q", 1);
    minus.rz(q2[0], -0.0);
    EXPECT_EQ(plus.contentHash(), minus.contentHash());
}

/** Chain seed for the chainHash comparisons below (any value). */
constexpr std::uint64_t kSeed = 0x71c3c4e8b0a5d2f9ULL;

/** The two hashes of one instruction, appended alone to a 6-qubit
 *  circuit whose only dense matrix is `matrix`. */
std::pair<std::uint64_t, std::uint64_t>
hashesOf(const circuit::Instruction &inst, const sim::CMatrix &matrix)
{
    Circuit c(6);
    c.addMatrix(matrix);
    c.append(inst);
    return {c.contentHash(), c.chainHash(kSeed, inst)};
}

/** A 4x4 unitary: a permutation with phases. */
sim::CMatrix
phasedPermutation(double phase)
{
    sim::CMatrix m(4);
    m.at(0, 1) = 1.0;
    m.at(1, 0) = 1.0;
    m.at(2, 3) = std::polar(1.0, phase);
    m.at(3, 2) = 1.0;
    return m;
}

TEST(ContentHash, EverySemanticFieldChangesBothHashes)
{
    // Every field is set, so a hasher that skips one fails its row.
    circuit::Instruction gate;
    gate.kind = circuit::GateKind::Phase;
    gate.controls = {0, 1};
    gate.targets = {2};
    gate.angle = 0.25;
    gate.bit = 1;
    gate.label = "lbl";
    gate.condLabel = "c";
    gate.condValue = 3;

    circuit::Instruction dense;
    dense.kind = circuit::GateKind::Unitary;
    dense.controls = {0};
    dense.targets = {1, 2};
    dense.matrixId = 0;

    using Mutation = void (*)(circuit::Instruction &);
    struct Row
    {
        const char *field;
        const circuit::Instruction *base;
        Mutation mutate;
    };
    const Row rows[] = {
        {"kind", &gate, [](circuit::Instruction &i) {
             i.kind = circuit::GateKind::Rz;
         }},
        {"control 0", &gate,
         [](circuit::Instruction &i) { i.controls[0] = 3; }},
        {"control 1", &gate,
         [](circuit::Instruction &i) { i.controls[1] = 4; }},
        {"target 0", &gate,
         [](circuit::Instruction &i) { i.targets[0] = 5; }},
        {"control order", &gate,
         [](circuit::Instruction &i) { i.controls = {1, 0}; }},
        {"angle", &gate, [](circuit::Instruction &i) { i.angle = 0.5; }},
        {"bit", &gate, [](circuit::Instruction &i) { i.bit = 0; }},
        {"label", &gate,
         [](circuit::Instruction &i) { i.label = "lbm"; }},
        {"condLabel", &gate,
         [](circuit::Instruction &i) { i.condLabel = "d"; }},
        {"condValue", &gate,
         [](circuit::Instruction &i) { i.condValue = 4; }},
        {"unitary target 0", &dense,
         [](circuit::Instruction &i) { i.targets[0] = 3; }},
        {"unitary target 1", &dense,
         [](circuit::Instruction &i) { i.targets[1] = 3; }},
        {"unitary control", &dense,
         [](circuit::Instruction &i) { i.controls[0] = 3; }},
    };
    const sim::CMatrix matrix = phasedPermutation(0.5);
    for (const Row &row : rows) {
        circuit::Instruction mutated = *row.base;
        row.mutate(mutated);
        const auto base = hashesOf(*row.base, matrix);
        const auto changed = hashesOf(mutated, matrix);
        EXPECT_NE(base.first, changed.first) << row.field;
        EXPECT_NE(base.second, changed.second) << row.field;
    }

    // Where the controls end counts, not only the qubit sequence
    // (checked on chainHash: a Phase with two targets is no valid
    // circuit instruction, and both hashes share one encoder).
    circuit::Instruction split = gate;
    split.controls = {0};
    split.targets = {1, 2};
    const Circuit space(6);
    EXPECT_NE(space.chainHash(kSeed, gate), space.chainHash(kSeed, split));

    // A Unitary hashes its matrix contents, not its side-table id.
    const auto base = hashesOf(dense, matrix);
    const auto other_contents = hashesOf(dense, phasedPermutation(0.75));
    EXPECT_NE(base.first, other_contents.first);
    EXPECT_NE(base.second, other_contents.second);
    Circuit shifted(6);
    shifted.addMatrix(phasedPermutation(0.75));
    shifted.addMatrix(matrix);
    circuit::Instruction moved = dense;
    moved.matrixId = 1;
    shifted.append(moved);
    EXPECT_EQ(shifted.contentHash(), base.first);
    EXPECT_EQ(shifted.chainHash(kSeed, moved), base.second);
}

TEST(ContentHash, ChainHashCanonicalisesNegativeZero)
{
    circuit::Instruction plus;
    plus.kind = circuit::GateKind::Rz;
    plus.targets = {0};
    plus.angle = 0.0;
    circuit::Instruction minus = plus;
    minus.angle = -0.0;
    const auto p = hashesOf(plus, sim::CMatrix(2));
    const auto m = hashesOf(minus, sim::CMatrix(2));
    EXPECT_EQ(p.first, m.first);
    EXPECT_EQ(p.second, m.second);
}

TEST(ContentHash, LabelLengthAndTailBytesAreMixedIn)
{
    // Labels are hashed eight bytes to a word after their length, so
    // a tail shorter than a word, a full word and a zero byte must
    // each count.
    const std::vector<std::string> labels{
        std::string(7, 'x'), std::string(8, 'x'), std::string(9, 'x'),
        std::string(16, 'x'), "a", std::string("a\0", 2), "",
        std::string(8, '\0'), std::string(9, '\0')};
    std::set<std::uint64_t> content;
    std::set<std::uint64_t> chain;
    for (const std::string &label : labels) {
        circuit::Instruction marker;
        marker.kind = circuit::GateKind::Breakpoint;
        marker.label = label;
        const auto h = hashesOf(marker, sim::CMatrix(2));
        content.insert(h.first);
        chain.insert(h.second);

        // The last byte of each tail reaches the hash.
        if (label.empty())
            continue;
        circuit::Instruction last_byte = marker;
        last_byte.label.back() = 'y';
        const auto changed = hashesOf(last_byte, sim::CMatrix(2));
        EXPECT_NE(changed.first, h.first) << label.size();
        EXPECT_NE(changed.second, h.second) << label.size();
    }
    EXPECT_EQ(content.size(), labels.size());
    EXPECT_EQ(chain.size(), labels.size());
}

TEST(ContentHash, PinnedAcrossPlatforms)
{
    // The encoding is fixed-width and packs string bytes
    // little-endian explicitly, so these values are the same on every
    // host; a change to the encoding must change the store-key
    // version ("v2:") along with them.
    Circuit c;
    const auto q = c.addRegister("qreg_name", 3);
    c.h(q[0]);
    c.ccphase(q[0], q[1], q[2], 0.375);
    c.measure(q, "result_label");
    c.x(q[1]);
    c.conditionLast("result_label", 5);
    c.breakpoint("after_all");
    EXPECT_EQ(c.contentHash(), kPinnedContentHash);
    std::uint64_t chain = kSeed;
    for (const auto &inst : c.instructions())
        chain = c.chainHash(chain, inst);
    EXPECT_EQ(chain, kPinnedChainHash);
}

// --- positioned parse errors -----------------------------------------------

struct MalformedCase
{
    const char *label;
    const char *source;
    std::size_t line;
    const char *token;
    const char *messagePart;
};

TEST(QasmErrors, EveryMalformedInputIsPositioned)
{
    const std::vector<MalformedCase> cases = {
        {"unknown gate",
         "OPENQASM 2.0;\nqreg q[1];\nzz q[0];\n", 3, "zz",
         "unsupported QASM gate"},
        {"unknown register",
         "OPENQASM 2.0;\nqreg q[1];\nh r[0];\n", 3, "r",
         "unknown register"},
        {"index out of range",
         "OPENQASM 2.0;\nqreg q[2];\nh q[5];\n", 3, "q[5]",
         "out of range"},
        {"duplicate operand",
         "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[0];\n", 3, "q[0]",
         "duplicate qubit operand"},
        {"swap arity",
         "OPENQASM 2.0;\nqreg q[3];\nswap q[0];\n", 3, "swap",
         "expects 2 operand(s), got 1"},
        {"bad angle",
         "OPENQASM 2.0;\nqreg q[1];\nrx(foo) q[0];\n", 3, "foo",
         "bad number in angle"},
        {"parameter on plain gate",
         "OPENQASM 2.0;\nqreg q[1];\nx(0.5) q[0];\n", 3, "x",
         "takes no parameter"},
        {"missing semicolon",
         "OPENQASM 2.0;\nqreg q[1];\nh q[0]\n", 3, "h q[0]",
         "statement missing ';'"},
        {"zero-width register",
         "OPENQASM 2.0;\nqreg q[0];\n", 2, "q",
         "width > 0"},
        {"duplicate register",
         "OPENQASM 2.0;\nqreg q[1];\nqreg q[2];\n", 3, "q",
         "duplicate register name"},
        {"unknown creg",
         "OPENQASM 2.0;\nqreg q[1];\nmeasure q[0] -> c[0];\n", 3,
         "c", "unknown creg"},
        {"condition before measurement",
         "OPENQASM 2.0;\nqreg q[1];\ncreg m_c[1];\n"
         "if(m_c==1) x q[0];\n",
         4, "m_c", "before any measurement"},
        {"malformed condition",
         "OPENQASM 2.0;\nqreg q[1];\nif(m_c) x q[0];\n", 3, "",
         "malformed if condition"},
        {"duplicate breakpoint",
         "OPENQASM 2.0;\nqreg q[1];\n// qsa.breakpoint a\n"
         "// qsa.breakpoint a\n",
         4, "a", "duplicate breakpoint label"},
        {"prepz out of range",
         "OPENQASM 2.0;\nqreg q[1];\n// qsa.prepz 7 0\n", 3, "7",
         "out of range"},
        {"bad prepz pragma",
         "OPENQASM 2.0;\nqreg q[1];\n// qsa.prepz\n", 3, "",
         "needs '<qubit> <bit>'"},
        {"duplicate measured qubit",
         "OPENQASM 2.0;\nqreg q[2];\ncreg m_c[2];\n"
         "measure q[1] -> m_c[0];\nmeasure q[1] -> m_c[1];\n",
         5, "c", "duplicate measured qubit in measurement group"},
        {"duplicate classical bit",
         "OPENQASM 2.0;\nqreg q[2];\ncreg m_c[2];\n"
         "measure q[0] -> m_c[1];\nmeasure q[1] -> m_c[1];\nh q[0];\n",
         6, "c", "duplicate classical bit in measurement group"},
        {"bare qreg", "OPENQASM 2.0;\nqreg;\n", 2, "",
         "bad register reference"},
        {"bare creg", "OPENQASM 2.0;\nqreg q[1];\n  creg ;\n", 3, "",
         "bad register reference"},
    };

    for (const auto &c : cases) {
        try {
            circuit::fromQasm(c.source);
            ADD_FAILURE() << c.label << ": parsed";
        } catch (const circuit::QasmError &error) {
            EXPECT_EQ(error.line(), c.line) << c.label;
            EXPECT_GE(error.column(), 1u) << c.label;
            if (*c.token != '\0') {
                EXPECT_EQ(error.token(), c.token) << c.label;
            }
            EXPECT_NE(std::string(error.what()).find(c.messagePart),
                      std::string::npos)
                << c.label << ": got '" << error.what() << "'";
        }
    }
}

TEST(QasmErrors, MeasuredQubitsAreDistinctWithinAGroupOnly)
{
    // A group is the run of adjacent measure statements into one
    // label; the same qubit may be measured again in a later group.
    const Circuit parsed = circuit::fromQasm(
        "qreg q[2];\ncreg m_a[1];\ncreg m_b[2];\n"
        "measure q[1] -> m_a[0];\nh q[0];\n"
        "measure q[1] -> m_b[1];\nmeasure q[0] -> m_b[0];\n");
    ASSERT_EQ(parsed.size(), 3u);
    EXPECT_EQ(parsed.instructions()[0].label, "a");
    EXPECT_EQ(parsed.instructions()[2].label, "b");
    EXPECT_EQ(parsed.instructions()[2].targets.size(), 2u);
    EXPECT_EQ(parsed.instructions()[2].targets[0], 0u);
    EXPECT_EQ(parsed.instructions()[2].targets[1], 1u);
}

TEST(QasmErrors, WhatIncludesPositionAndToken)
{
    try {
        circuit::fromQasm("OPENQASM 2.0;\nqreg q[1];\nzz q[0];\n");
        ADD_FAILURE() << "parsed";
    } catch (const circuit::QasmError &error) {
        EXPECT_EQ(std::string(error.what()),
                  "line 3, column 1: unsupported QASM gate 'zz'");
        // A context prefix (serve names the request field) keeps the
        // position.
        const circuit::QasmError named("'circuit': ", error);
        EXPECT_EQ(std::string(named.what()),
                  "'circuit': line 3, column 1: unsupported QASM gate "
                  "'zz'");
        EXPECT_EQ(named.line(), 3u);
        EXPECT_EQ(named.column(), 1u);
        EXPECT_EQ(named.token(), "zz");
    }
}

TEST(QasmErrors, FromQasmThrowsAQasmError)
{
    // Malformed input is a catchable qsa::Error of the positioned
    // kind, whatever check rejects it.
    EXPECT_THROW_MESSAGE(
        circuit::fromQasm("OPENQASM 2.0;\nqreg q[1];\nzz q[0];\n"),
        circuit::QasmError, "^line 3.*unsupported QASM gate");
    EXPECT_THROW_MESSAGE(circuit::fromQasm("qreg q[2];\nh q[9];\n"),
                         circuit::QasmError, "out of range");
}

TEST(QasmAngles, ReadNumbersAsStrtodDoes)
{
    // An angle is an expression over numbers strtod reads (a sign, a
    // hex float, an exponent, an underflow to zero) and pi.
    const std::vector<std::pair<const char *, double>> accepted = {
        {"+0.5", 0.5},
        {"0x1p-2", 0.25},
        {"0x.8", 0.5},
        {"0X1P+1", 2.0},
        {"1.", 1.0},
        {".5", 0.5},
        {"1e+1", 10.0},
        {"1e-400", 0.0},
        {" - pi / 2 ", -M_PI / 2},
        {"2*pi-+1", 2 * M_PI - 1},
        {"--3", 3.0},
    };
    for (const auto &[angle, value] : accepted) {
        const Circuit parsed = circuit::fromQasm(
            std::string("qreg q[1];\nrz(") + angle + ") q[0];\n");
        ASSERT_EQ(parsed.size(), 1u) << angle;
        EXPECT_EQ(parsed.instructions()[0].angle, value) << angle;
    }
    const std::vector<std::pair<const char *, const char *>> rejected = {
        {"1e", "trailing characters in angle '1e'"},
        {"1e400", "bad number in angle '1e400'"},
        {"inf", "bad number in angle 'inf'"},
        {"nan", "bad number in angle 'nan'"},
        {"0/0", "non-finite angle '0/0'"},
        {"1e308*10", "non-finite angle '1e308\\*10'"},
    };
    for (const auto &[angle, message] : rejected) {
        EXPECT_THROW_MESSAGE(
            circuit::fromQasm(std::string("qreg q[1];\nrz(") + angle +
                              ") q[0];\n"),
            circuit::QasmError, message);
    }
}

TEST(QasmAngles, DeepNestingNeedsNoRecursion)
{
    // A request line of a mebibyte can nest that deep; a recursive
    // descent overflows the stack long before.
    const std::string deep = "qreg q[1];\nrz(" + std::string(1000000, '-');
    const Circuit parsed = circuit::fromQasm(deep + "0.5) q[0];\n");
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed.instructions()[0].angle, 0.5);
    try {
        circuit::fromQasm("qreg q[1];\nrz(" + std::string(1000000, '(') +
                          "1) q[0];\n");
        ADD_FAILURE() << "parsed";
    } catch (const circuit::QasmError &error) {
        EXPECT_EQ(error.line(), 2u);
        EXPECT_EQ(error.column(), 4u);
        EXPECT_EQ(std::string(error.what()).rfind(
                      "line 2, column 4: unbalanced parens in angle", 0),
                  0u);
    }
}

// --- the accepted language, pinned by mutants -------------------------------

/**
 * The programs the mutants are cut from: every clean reference and
 * generated programs (mid-circuit measurements, resets, conditions;
 * no Unitary, which has no QASM form), emitted.
 */
std::vector<std::string>
mutantBases()
{
    std::vector<std::string> bases;
    for (const auto &[name, circ] : cleanReferenceCircuits())
        bases.push_back(circuit::toQasm(circ));
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        bases.push_back(circuit::toQasm(
            testgen::monolithicProgram(seed, 2 + seed, 40)));
    return bases;
}

/** `bytes` in double quotes, escaped: '"' and '\\' get a backslash,
 *  unprintable bytes read "\\x0b". */
std::string
escaped(const std::string &bytes)
{
    std::string out;
    for (const char ch : bytes) {
        const auto byte = static_cast<unsigned char>(ch);
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (byte < 0x20 || byte >= 0x7f) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\x%02x", byte);
            out += buf;
        } else {
            out += ch;
        }
    }
    return '"' + out + '"';
}

/** What fromQasm makes of `text`, as one line. */
std::string
verdict(const std::string &text)
{
    try {
        const Circuit parsed = circuit::fromQasm(text);
        char hash[24];
        std::snprintf(hash, sizeof(hash), "%016llx",
                      static_cast<unsigned long long>(
                          parsed.contentHash()));
        return "ok " + std::to_string(parsed.size()) + " " + hash;
    } catch (const circuit::QasmError &error) {
        return "err " + std::to_string(error.line()) + " " +
               std::to_string(error.column()) + " " +
               escaped(error.token()) + " " + escaped(error.what());
    } catch (const std::exception &error) {
        return "other " + escaped(error.what());
    }
}

/** The byte ranges an edit may hit besides anywhere: inside an
 *  angle's parentheses (both included), on a pragma or register
 *  declaration line; and where each declaration starts. */
struct Targets
{
    std::vector<std::pair<std::size_t, std::size_t>> angles;
    std::vector<std::pair<std::size_t, std::size_t>> lines;
    std::vector<std::size_t> declarations;
};

Targets
targetsOf(const std::string &text)
{
    Targets t;
    for (std::size_t open = text.find('('); open != std::string::npos;
         open = text.find('(', open + 1)) {
        const std::size_t close = text.find(')', open);
        // "if(" opens a condition, not an angle.
        if (close != std::string::npos &&
            (open < 2 || text.compare(open - 2, 2, "if") != 0))
            t.angles.emplace_back(open, close + 1);
    }
    for (std::size_t at = 0; at < text.size();
         at = text.find('\n', at) + 1) {
        if (text.compare(at, 5, "qreg ") == 0 ||
            text.compare(at, 5, "creg ") == 0)
            t.declarations.push_back(at);
        if (text.compare(at, 7, "// qsa.") == 0 ||
            text.compare(at, 5, "qreg ") == 0 ||
            text.compare(at, 5, "creg ") == 0)
            t.lines.emplace_back(at, text.find('\n', at) + 1);
    }
    return t;
}

/**
 * `count` mutants of the bases, each one or two single-byte edits
 * (delete, insert, replace), seeded. Two fifths of the mutants take
 * their edits anywhere, a fifth inside angles (numbers, signs,
 * exponents), a fifth on pragma and declaration lines, and a fifth one
 * byte of syntax random edits seldom reach: a sign or hex prefix on
 * an angle's number, or a bare register declaration. Each mutant is
 * described as "b<base> <edit>...".
 */
std::vector<std::pair<std::string, std::string>>
mutants(const std::vector<std::string> &bases, std::size_t count)
{
    static const std::string kAny =
        std::string("0123456789abcdehimnpqrstuxz_ABCEFINOPQSX"
                    "+-*/.,;:()[]<>=!\"' \t\r\n\v\f") +
        '\0';
    static const std::string kAngle = "0123456789+-*/(). eExXpPaAfinp";
    static const std::string kLine = "0123456789+-.;[] \tqsaprezbk\r";

    std::vector<Targets> targets;
    for (const std::string &base : bases)
        targets.push_back(targetsOf(base));
    Rng rng(0x51a7e5);
    std::vector<std::pair<std::string, std::string>> out;
    while (out.size() < count) {
        // The two Shor programs are a hundred times longer than the
        // rest; they get a quarter of their share.
        const std::size_t b = rng.uniformInt(bases.size());
        if (bases[b].size() > 16384 && rng.uniformInt(4) != 0)
            continue;
        std::string text = bases[b];
        std::string what = "b" + std::to_string(b);
        const auto focus = rng.uniformInt(5);
        if (focus == 4 && rng.uniformInt(8) == 0) {
            // A ';' after the keyword leaves a declaration bare.
            const auto &starts = targets[b].declarations;
            const std::size_t pos =
                starts[rng.uniformInt(starts.size())] + 4;
            text[pos] = ';';
            what += " r" + std::to_string(pos) + escaped(";");
            out.emplace_back(std::move(what), std::move(text));
            continue;
        }
        if (focus == 4 && !targets[b].angles.empty()) {
            // strtod's own syntax, one byte each: a '+' before an
            // angle's number, or an 'x' that makes a leading "0." a
            // hex float ("0x.8", "0X8").
            const auto &r = targets[b].angles[rng.uniformInt(
                targets[b].angles.size())];
            std::size_t pos = r.first + 1;
            pos += text[pos] == '-';
            if (text.compare(pos, 2, "0.") != 0 || rng.bernoulli(0.25)) {
                text.insert(pos, 1, '+');
                what += " i" + std::to_string(pos) + escaped("+");
            } else if (rng.bernoulli(0.5)) {
                text.insert(pos + 1, 1, 'x');
                what += " i" + std::to_string(pos + 1) + escaped("x");
            } else {
                text[pos + 1] = 'X';
                what += " r" + std::to_string(pos + 1) + escaped("X");
            }
            out.emplace_back(std::move(what), std::move(text));
            continue;
        }
        const auto &ranges =
            focus == 2 ? targets[b].angles : targets[b].lines;
        const std::string &alphabet =
            focus == 2 ? kAngle : focus == 3 ? kLine : kAny;
        // Distinct positions in descending order, so no edit moves
        // the byte another one hits.
        std::vector<std::size_t> at;
        for (std::uint64_t e = 1 + rng.uniformInt(2); e > 0; --e) {
            if (focus < 2 || ranges.empty()) {
                at.push_back(rng.uniformInt(text.size()));
            } else {
                const auto &r = ranges[rng.uniformInt(ranges.size())];
                at.push_back(r.first + rng.uniformInt(r.second - r.first));
            }
        }
        std::sort(at.rbegin(), at.rend());
        at.erase(std::unique(at.begin(), at.end()), at.end());
        for (const std::size_t pos : at) {
            const char ch = alphabet[rng.uniformInt(alphabet.size())];
            switch (rng.uniformInt(3)) {
              case 0:
                text.erase(pos, 1);
                what += " d" + std::to_string(pos);
                break;
              case 1:
                text.insert(pos, 1, ch);
                what += " i" + std::to_string(pos) + escaped({ch});
                break;
              default:
                text[pos] = ch;
                what += " r" + std::to_string(pos) + escaped({ch});
                break;
            }
        }
        out.emplace_back(std::move(what), std::move(text));
    }
    return out;
}

TEST(QasmMutants, EveryVerdictMatchesTheGolden)
{
    // The committed golden (tests/qasm_mutants.golden) pins what the
    // parser accepts and how it rejects the rest, field by field, over
    // 3,000 edited programs. Set QSA_QASM_GOLDEN_OUT to a path to
    // write the verdicts this build gives there.
    const auto cases = mutants(mutantBases(), 3000);
    std::ostringstream actual;
    for (const auto &[what, text] : cases)
        actual << what << " => " << verdict(text) << "\n";
    if (const char *out = std::getenv("QSA_QASM_GOLDEN_OUT"))
        std::ofstream(out) << actual.str();

    std::ifstream file(std::string(QSA_TESTS_DIR) +
                       "/qasm_mutants.golden");
    ASSERT_TRUE(file) << "tests/qasm_mutants.golden is missing";
    std::istringstream got(actual.str());
    std::string expected_line, got_line;
    std::size_t index = 0, mismatches = 0;
    while (std::getline(file, expected_line)) {
        ASSERT_TRUE(std::getline(got, got_line))
            << "fewer verdicts than the golden's";
        if (got_line != expected_line && ++mismatches <= 10)
            ADD_FAILURE() << "mutant " << index << "\n  golden: "
                          << expected_line << "\n  actual: " << got_line;
        ++index;
    }
    EXPECT_EQ(index, cases.size());
    EXPECT_EQ(mismatches, 0u);
}

} // namespace
