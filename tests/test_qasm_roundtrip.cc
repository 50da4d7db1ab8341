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

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "qsa/qsa.hh"

#include "expect_throw.hh"

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

} // namespace
