/**
 * @file
 * Gate-fusion pass implementation.
 */

#include "circuit/fusion.hh"

#include <algorithm>
#include <utility>

#include "circuit/executor.hh"
#include "common/bits.hh"
#include "common/logging.hh"

namespace qsa::circuit
{

namespace
{

using sim::CMatrix;

/** An open fusion block: a pending dense unitary on <= 2 qubits. */
struct Block
{
    /** Qubits the block acts on, ascending. */
    std::vector<unsigned> qubits;

    /** Accumulated matrix; qubits[0] is the LSB of its index space. */
    CMatrix u;

    /** Original instructions absorbed so far. */
    std::size_t members = 0;

    /** The absorbed instruction when members == 1 (emitted verbatim). */
    Instruction original;
};

/**
 * Lift a matrix defined on qubit list `gq` (LSB first, any order) into
 * the index space of the superset list `bq` (ascending): identity on
 * the extra qubits, `g` on its own.
 */
CMatrix
liftInto(const CMatrix &g, const std::vector<unsigned> &gq,
         const std::vector<unsigned> &bq)
{
    std::vector<unsigned> pos(gq.size());
    std::uint64_t gmask = 0;
    for (std::size_t i = 0; i < gq.size(); ++i) {
        const auto it = std::find(bq.begin(), bq.end(), gq[i]);
        panic_if(it == bq.end(), "fusion lift target not in block");
        pos[i] = static_cast<unsigned>(it - bq.begin());
        gmask |= pow2(pos[i]);
    }

    const std::uint64_t dim = pow2(bq.size());
    CMatrix out(dim);
    for (std::uint64_t r = 0; r < dim; ++r) {
        for (std::uint64_t c = 0; c < dim; ++c) {
            if ((r & ~gmask) != (c & ~gmask))
                continue; // spectator bits must agree
            std::uint64_t gr = 0, gc = 0;
            for (std::size_t i = 0; i < pos.size(); ++i) {
                gr |= getBit(r, pos[i]) << i;
                gc |= getBit(c, pos[i]) << i;
            }
            out.at(r, c) = g.at(gr, gc);
        }
    }
    return out;
}

/** Controlled version of u with the control as the new highest bit. */
CMatrix
controlledOnHigh(const CMatrix &u)
{
    const std::size_t half = u.dim();
    CMatrix out(half * 2);
    for (std::size_t i = 0; i < half; ++i)
        out.at(i, i) = sim::Complex(1.0);
    for (std::size_t r = 0; r < half; ++r)
        for (std::size_t c = 0; c < half; ++c)
            out.at(half + r, half + c) = u.at(r, c);
    return out;
}

/** The 4x4 swap permutation (qubit-order independent). */
CMatrix
swapMatrix()
{
    CMatrix out(4);
    out.at(0, 0) = sim::Complex(1.0);
    out.at(1, 2) = sim::Complex(1.0);
    out.at(2, 1) = sim::Complex(1.0);
    out.at(3, 3) = sim::Complex(1.0);
    return out;
}

/** A fusible gate normalised to (ascending qubit list, dense matrix). */
struct Fusible
{
    std::vector<unsigned> qubits;
    CMatrix u;
};

/**
 * Classify one instruction. Fusible: unconditional unitaries spanning
 * <= 2 qubits (controls included). Everything else — Measure, PrepZ,
 * Breakpoint, conditioned gates, wider spans — is a barrier.
 */
bool
tryFusible(const Circuit &circ, const Instruction &inst, Fusible &out)
{
    if (!inst.condLabel.empty())
        return false;
    switch (inst.kind) {
      case GateKind::PrepZ:
      case GateKind::Measure:
      case GateKind::Breakpoint:
        return false;
      default:
        break;
    }
    if (inst.targets.size() + inst.controls.size() > 2)
        return false;

    // Local qubit order: targets LSB first, then controls above them.
    CMatrix local;
    if (inst.kind == GateKind::Swap)
        local = swapMatrix();
    else if (inst.kind == GateKind::Unitary)
        local = circ.matrix(inst.matrixId);
    else
        local = CMatrix::fromMat2(gateMatrix1q(inst));
    for (std::size_t c = 0; c < inst.controls.size(); ++c)
        local = controlledOnHigh(local);

    std::vector<unsigned> lq(inst.targets.begin(), inst.targets.end());
    lq.insert(lq.end(), inst.controls.begin(), inst.controls.end());
    out.qubits = lq;
    std::sort(out.qubits.begin(), out.qubits.end());
    out.u = liftInto(local, lq, out.qubits);
    return true;
}

/** Emit one block into `out`, accumulating eliminated-gate count. */
void
emitBlock(Circuit &out, const Circuit &in, const Block &block,
          std::size_t &eliminated)
{
    if (block.members == 1) {
        Instruction copy = block.original;
        if (copy.kind == GateKind::Unitary)
            copy.matrixId = out.addMatrix(in.matrix(copy.matrixId));
        out.append(copy);
        return;
    }
    eliminated += block.members - 1;
    Instruction fused;
    fused.kind = GateKind::Unitary;
    fused.targets = block.qubits;
    fused.matrixId = out.addMatrix(block.u);
    out.append(fused);
}

} // anonymous namespace

Circuit
fuseGates(const Circuit &in, FusionStats *stats)
{
    Circuit out = in.sliceRange(0, 0); // empty clone of the qubit space
    std::vector<Block> pending;
    std::size_t eliminated = 0;

    const auto flushAll = [&] {
        for (const Block &block : pending)
            emitBlock(out, in, block, eliminated);
        pending.clear();
    };

    for (const Instruction &inst : in.instructions()) {
        Fusible f;
        if (!tryFusible(in, inst, f)) {
            flushAll();
            Instruction copy = inst;
            if (copy.kind == GateKind::Unitary)
                copy.matrixId = out.addMatrix(in.matrix(copy.matrixId));
            out.append(copy);
            continue;
        }

        // Pending blocks are pairwise disjoint; collect the ones this
        // gate touches and the union of qubits a merge would span.
        std::vector<std::size_t> hits;
        std::vector<unsigned> span = f.qubits;
        for (std::size_t i = 0; i < pending.size(); ++i) {
            const Block &b = pending[i];
            const bool overlap = std::any_of(
                b.qubits.begin(), b.qubits.end(), [&](unsigned q) {
                    return std::find(f.qubits.begin(), f.qubits.end(),
                                     q) != f.qubits.end();
                });
            if (!overlap)
                continue;
            hits.push_back(i);
            for (unsigned q : b.qubits) {
                if (std::find(span.begin(), span.end(), q) == span.end())
                    span.push_back(q);
            }
        }
        std::sort(span.begin(), span.end());

        if (hits.empty()) {
            Block fresh;
            fresh.qubits = f.qubits;
            fresh.u = f.u;
            fresh.members = 1;
            fresh.original = inst;
            pending.push_back(std::move(fresh));
            continue;
        }

        if (span.size() <= 2) {
            // Merge the touched blocks (disjoint, so program order
            // among them is a commuting reorder) and the new gate.
            Block merged;
            merged.qubits = span;
            merged.u = CMatrix::identity(pow2(span.size()));
            for (std::size_t i : hits) {
                const Block &b = pending[i];
                merged.u = liftInto(b.u, b.qubits, span).mul(merged.u);
                merged.members += b.members;
            }
            merged.u = liftInto(f.u, f.qubits, span).mul(merged.u);
            merged.members += 1;
            pending[hits.front()] = std::move(merged);
            for (std::size_t i = hits.size(); i-- > 1;)
                pending.erase(pending.begin() +
                              static_cast<std::ptrdiff_t>(hits[i]));
        } else {
            // Growing past two qubits: retire what the gate touches
            // and open a fresh block for it.
            for (std::size_t i : hits)
                emitBlock(out, in, pending[i], eliminated);
            for (std::size_t i = hits.size(); i-- > 0;)
                pending.erase(pending.begin() +
                              static_cast<std::ptrdiff_t>(hits[i]));
            Block fresh;
            fresh.qubits = f.qubits;
            fresh.u = f.u;
            fresh.members = 1;
            fresh.original = inst;
            pending.push_back(std::move(fresh));
        }
    }
    flushAll();

    if (stats != nullptr) {
        stats->fusedGates = eliminated;
        stats->emitted = out.size();
    }
    return out;
}

} // namespace qsa::circuit
