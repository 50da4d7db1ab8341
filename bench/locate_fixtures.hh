/**
 * @file
 * The bug-localization fixtures bench_locate times and replays, shared
 * with the tests that pin their LinearScan records
 * (tests/test_locate_scan.cc): each builder returns a (suspect,
 * reference) pair.
 */

#ifndef QSA_BENCH_LOCATE_FIXTURES_HH
#define QSA_BENCH_LOCATE_FIXTURES_HH

#include <cmath>
#include <string>
#include <utility>

#include "qsa/qsa.hh"

namespace qsa::locatefix
{

using circuit::Circuit;

/** Table 1 flipped-rotation defect inside a decomposed adder. */
inline std::pair<Circuit, Circuit>
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
inline std::pair<Circuit, Circuit>
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
inline std::pair<Circuit, Circuit>
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
inline std::pair<Circuit, Circuit>
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
inline std::pair<Circuit, Circuit>
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
inline std::pair<Circuit, Circuit>
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
inline std::pair<Circuit, Circuit>
semiclassicalWrongInversePair()
{
    algo::ShorConfig good;
    algo::ShorConfig bad;
    bad.pairs = algo::shorClassicalInputs(7, 15, 3);
    bad.pairs[0].second = 12;
    return {algo::buildSemiclassicalShorProgram(bad).circuit,
            algo::buildSemiclassicalShorProgram(good).circuit};
}

/**
 * The same wrong inverse in the full Shor program (the localization
 * the paper-session workload times): 13 PrepZ, then measurement-free
 * gates, so every mirror probe reads the fidelity of the two prefix
 * states and its reference head resumes from the suspect's floor.
 */
inline std::pair<Circuit, Circuit>
shorWrongInversePair()
{
    algo::ShorConfig bad;
    bad.pairs = algo::shorClassicalInputs(7, 15, 3);
    bad.pairs[0].second = 12;
    return {algo::buildShorProgram(bad).circuit,
            algo::buildShorProgram(algo::ShorConfig()).circuit};
}

inline std::pair<Circuit, Circuit>
fixturePair(int which)
{
    switch (which) {
      case 0: return flippedAdderPair();
      case 1: return misroutedPair();
      case 2: return wrongInversePair();
      case 3: return measuredTeleportPair();
      case 4: return zFrameTeleportPair();
      case 5: return wideMeasurePair();
      case 7: return shorWrongInversePair();
      default: return semiclassicalWrongInversePair();
    }
}

inline const char *
fixtureName(int which)
{
    switch (which) {
      case 0: return "flipped-adder";
      case 1: return "misrouted-control";
      case 2: return "wrong-inverse";
      case 3: return "measured-teleport";
      case 4: return "zframe-teleport";
      case 5: return "wide-measure";
      case 7: return "shor-wrong-inverse";
      default: return "semiclassical-wrong-inverse";
    }
}

/** A fixture's ensemble sizes: 64 escalating to 1,024 (full Shor's
 *  paper-session policy), except the semiclassical search, which runs
 *  on 32 escalating to 256 as the paper-session workload and its
 *  pinned test do. */
inline void
setEnsembleSizes(locate::LocateConfig &cfg, int which)
{
    const bool semiclassical = which == 6;
    cfg.ensembleSize = semiclassical ? 32 : 64;
    cfg.maxEnsembleSize = semiclassical ? 256 : 1024;
}

} // namespace qsa::locatefix

#endif // QSA_BENCH_LOCATE_FIXTURES_HH
