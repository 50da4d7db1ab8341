/**
 * @file
 * Gate fusion: collapse runs of adjacent small unitaries into single
 * dense Mat2/Mat4 applies.
 *
 * Fusing a run of k adjacent 1q gates on the same qubit (or 1q gates
 * sandwiching a 2q gate on its targets) into one dense apply cuts the
 * apply count by ~k at identical semantics. The ensemble engine does
 * not run this pass: at the state sizes it simulates, a dense Mat4
 * costs more than the gates it replaces (it absorbs diagonal gates
 * the kernels scale cheaply), and a fused long prefix does not begin
 * with the fused form of a shorter one, which prefix checkpoints
 * need (DESIGN.md "Simulation kernels"). It remains a standalone
 * transformation.
 *
 * Fusion rules:
 *  - Fusible: unconditional unitary instructions spanning <= 2 qubits
 *    total — plain 1q kinds, singly-controlled 1q kinds, Swap, and
 *    dense Unitary instructions on <= 2 qubits (controls included).
 *  - Barriers: Measure, PrepZ, Breakpoint, classically-conditioned
 *    gates, and anything spanning >= 3 qubits. A barrier flushes all
 *    pending blocks, so instruction order across non-unitary events
 *    is preserved exactly (including RNG draw order).
 *  - Blocks on disjoint qubit sets commute exactly, so gates merge
 *    into the earliest open block they overlap; a block is emitted as
 *    one GateKind::Unitary instruction (ascending qubit order) when a
 *    barrier arrives or a gate would grow its span past two qubits.
 *
 * Fused execution is algebraically identical to the unfused program
 * but not bit-identical in amplitudes (matrix products round
 * differently); seeded measurement histograms and assertion verdicts
 * are unchanged in practice and pinned by tests/test_fusion.cc.
 */

#ifndef QSA_CIRCUIT_FUSION_HH
#define QSA_CIRCUIT_FUSION_HH

#include <cstddef>

#include "circuit/circuit.hh"

namespace qsa::circuit
{

/** Outcome accounting for one fusion pass. */
struct FusionStats
{
    /** Original gate instructions eliminated by merging. */
    std::size_t fusedGates = 0;

    /** Instructions in the fused circuit. */
    std::size_t emitted = 0;
};

/**
 * Return a fused copy of `in` (same qubit space and registers).
 * Per-call numbers land in `stats` when non-null; the pass bumps no
 * counter.
 */
Circuit fuseGates(const Circuit &in, FusionStats *stats = nullptr);

} // namespace qsa::circuit

#endif // QSA_CIRCUIT_FUSION_HH
