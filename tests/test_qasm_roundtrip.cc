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
