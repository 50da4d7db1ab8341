/**
 * @file
 * Bracketing a phase defect the computational basis cannot see.
 *
 * The measured teleportation protocol corrects the receiver with
 * classically-conditioned Pauli gates. This walkthrough injects a
 * *frame* defect: the conditioned Z correction applies S instead, so
 * in every m_z = 1 branch the receiver differs from the reference by
 * a relative phase only. Between the defect's site and the verify
 * rotation every computational-basis marginal of every register is
 * bit-identical to the reference — the paper's assertion types, and
 * the mixture-marginal / segment-mirror probe families built on
 * them, bracket the verify step instead of the defect.
 *
 * The swap-test probe family closes the gap: each probe runs the
 * suspect prefix and a label-renamed reference prefix side by side
 * and compares the receiver registers with an ancilla-controlled
 * SWAP. The ancilla's outcome distribution depends on the *overlap*
 * of the two reduced states — invariant under the common verify
 * rotations, sensitive to pure phase — so the adaptive search
 * brackets the defective conditioned correction itself, in fewer
 * probes than an exhaustive scan. ProbeFamily::Auto packages the
 * escalation: cheap marginal probes first, swap-test re-adjudication
 * only when a decisive swap probe proves the divergence predates the
 * visible bracket.
 *
 * Every search below runs on one scope, the receiver register
 * (`s.locate(good, recv)`, or `locate(recv)` on a BugLocator); the
 * configured probe family picks the probes for that scope, so
 * switching families never changes the call.
 */

#include <cmath>
#include <iostream>

#include "qsa/qsa.hh"

using namespace qsa;

namespace
{

/** The measured teleport; the defect swaps the Z correction for S. */
circuit::Circuit
buildTeleport(bool buggy)
{
    constexpr double theta = 1.1;
    constexpr double phi = 0.6;

    circuit::Circuit circ;
    const auto msg = circ.addRegister("msg", 1);
    const auto half = circ.addRegister("half", 1);
    const auto recv = circ.addRegister("recv", 1);

    circ.prepZ(msg[0], 0);
    circ.prepZ(half[0], 0);
    circ.prepZ(recv[0], 0);
    circ.ry(msg[0], theta); // the payload
    circ.rz(msg[0], phi);
    circ.h(half[0]);
    circ.cnot(half[0], recv[0]);
    circ.cnot(msg[0], half[0]);
    circ.h(msg[0]);
    circ.measureQubits({half[0]}, "m_x");
    circ.measureQubits({msg[0]}, "m_z");
    circ.x(recv[0]);
    circ.conditionLast("m_x", 1);
    if (buggy)
        circ.phase(recv[0], M_PI / 2); // [12] S frame instead of Z
    else
        circ.z(recv[0]); // [12]
    circ.conditionLast("m_z", 1);
    circ.rz(recv[0], -phi); // verify: inverse payload preparation
    circ.ry(recv[0], -theta);
    return circ;
}

void
printProbes(const locate::LocalizationReport &report)
{
    for (const auto &probe : report.probes) {
        std::cout << "  " << locate::probeFamilyName(probe.family)
                  << " probe @ boundary " << probe.boundary << ": "
                  << (probe.failed ? "FAIL" : "pass")
                  << (probe.phaseAmbiguous ? " [phase-ambiguous]"
                                           : "")
                  << " (p = " << probe.pValue << ", ensemble "
                  << probe.ensembleSize << ")\n";
    }
}

} // anonymous namespace

int
main()
{
    constexpr std::size_t defect = 12; // the conditioned correction

    const circuit::Circuit bad = buildTeleport(true);
    const circuit::Circuit good = buildTeleport(false);
    const auto recv = bad.reg("recv");

    std::cout << "measured teleport with a conditioned-Z-frame "
                 "defect at instruction " << defect << "\n"
              << "program size: " << bad.size()
              << " instructions on " << bad.numQubits()
              << " qubits\n\n";

    // The session carries mode / seed / escalation into every
    // locator run below.
    session::Session s(bad);
    s.mode(assertions::EnsembleMode::Resimulate);
    s.use(assertions::EscalationPolicy{64, 1024, 0.30});

    // Step 1: the computational families see the failure but bracket
    // the verify step — the phase defect is invisible between its
    // site and the rotation that exposes it. On a register scope the
    // default family is the mixture marginal.
    const auto marginal = s.locate(good, recv);
    std::cout << "mixture-marginal family: " << marginal.summary()
              << "\n";
    const bool marginal_misses =
        marginal.bugFound && marginal.suspectBegin() > defect;
    std::cout << "  -> brackets the verify step, "
              << (marginal_misses ? "missing" : "covering??")
              << " the defect at " << defect << "\n\n";

    // Step 2: the swap-test family compares receiver states against
    // an embedded reference copy; the overlap witness is monotone
    // under the common verify rotations, so the bracket lands on the
    // defective conditioned correction itself.
    s.probes(locate::ProbeFamily::SwapTest);
    const auto swap = s.locate(good, recv);
    std::cout << "swap-test family:        " << swap.summary() << "\n";
    printProbes(swap);

    // The exhaustive baseline: a linear scan with the static-pruning
    // pre-pass off probes every boundary until the first failure —
    // the cost the pruned adaptive search above is saving against.
    locate::LocateConfig scan_cfg =
        s.locateConfig(locate::Strategy::LinearScan);
    scan_cfg.staticPruning = false;
    const locate::BugLocator scanner(bad, good, scan_cfg);
    const auto swap_scan = scanner.locate(recv);
    std::cout << "\nswap-test probe savings: " << swap.probes.size()
              << " adaptive probes vs " << swap_scan.probes.size()
              << " for the exhaustive scan\n\n";

    // Step 3: Auto packages the escalation — marginal probes first,
    // one decisive swap probe at the marginal bracket's lastPassing
    // boundary, a swap-test search only because that probe failed.
    s.probes(locate::ProbeFamily::Auto);
    const auto agile = s.locate(good, recv);
    std::cout << "auto family:             " << agile.summary()
              << "\n";
    printProbes(agile);

    const bool ok =
        marginal_misses && swap.bugFound &&
        swap.suspectBegin() == defect && swap_scan.bugFound &&
        swap_scan.suspectBegin() == defect &&
        swap.probes.size() < swap_scan.probes.size() &&
        agile.bugFound && agile.escalatedToSwapTest &&
        agile.suspectBegin() == defect;
    std::cout << (ok ? "\nphase defect bracketed at its site by the "
                       "swap-test witness.\n"
                     : "\nunexpected localization behaviour!\n");
    return ok ? 0 : 1;
}
