/**
 * @file
 * Clifford abstract interpretation: CHP tableau, static predicates,
 * and the boundary-equivalence pre-pass.
 */

#include "analyze/clifford.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/artifacts.hh"
#include "common/bits.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "obs/obs.hh"

namespace qsa::analyze
{

namespace
{

/** Tolerance (in units of pi/2) for snapping angles to quarter turns. */
constexpr double kQuarterTol = 1e-9;

/** Tolerance for structural angle/matrix comparisons. */
constexpr double kExactTol = 1e-12;

/**
 * Classify `angle` as k quarter turns (k in 0..3) when it is an
 * exact multiple of pi/2 modulo 2*pi; nullopt otherwise.
 */
std::optional<int>
quarterTurns(double angle)
{
    const double turns = angle / (M_PI / 2.0);
    const double rounded = std::round(turns);
    if (std::abs(turns - rounded) > kQuarterTol)
        return std::nullopt;
    const long long k = std::llround(std::fmod(rounded, 4.0));
    return static_cast<int>((k % 4 + 4) % 4);
}

/** Append `op` for every quarter turn of a diagonal phase. */
void
appendQuarterPhase(std::vector<CliffordOp> &ops, int k, std::size_t q)
{
    using K = CliffordOp::Kind;
    switch (k) {
      case 0: break;
      case 1: ops.push_back({K::S, q, 0}); break;
      case 2: ops.push_back({K::Z, q, 0}); break;
      case 3: ops.push_back({K::Sdg, q, 0}); break;
      default: panic("quarter turn out of range");
    }
}

} // anonymous namespace

// --- StabilizerTableau -----------------------------------------------------

StabilizerTableau::StabilizerTableau(std::size_t num_qubits)
    : n(num_qubits), words((num_qubits + 63) / 64),
      xbits((2 * num_qubits + 1) * words, 0),
      zbits((2 * num_qubits + 1) * words, 0),
      signs(2 * num_qubits + 1, false)
{
    fatal_if(n == 0, "stabilizer tableau needs at least one qubit");
    for (std::size_t q = 0; q < n; ++q) {
        setx(q, q, true);     // destabilizer X_q
        setz(n + q, q, true); // stabilizer Z_q
    }
}

bool
StabilizerTableau::xb(std::size_t row, std::size_t col) const
{
    return (xbits[row * words + col / 64] >> (col % 64)) & 1;
}

bool
StabilizerTableau::zb(std::size_t row, std::size_t col) const
{
    return (zbits[row * words + col / 64] >> (col % 64)) & 1;
}

void
StabilizerTableau::setx(std::size_t row, std::size_t col, bool v)
{
    const std::uint64_t mask = std::uint64_t(1) << (col % 64);
    if (v)
        xbits[row * words + col / 64] |= mask;
    else
        xbits[row * words + col / 64] &= ~mask;
}

void
StabilizerTableau::setz(std::size_t row, std::size_t col, bool v)
{
    const std::uint64_t mask = std::uint64_t(1) << (col % 64);
    if (v)
        zbits[row * words + col / 64] |= mask;
    else
        zbits[row * words + col / 64] &= ~mask;
}

void
StabilizerTableau::rowcopy(std::size_t dst, std::size_t src)
{
    for (std::size_t w = 0; w < words; ++w) {
        xbits[dst * words + w] = xbits[src * words + w];
        zbits[dst * words + w] = zbits[src * words + w];
    }
    signs[dst] = signs[src];
}

void
StabilizerTableau::rowclear(std::size_t row)
{
    for (std::size_t w = 0; w < words; ++w) {
        xbits[row * words + w] = 0;
        zbits[row * words + w] = 0;
    }
    signs[row] = false;
}

void
StabilizerTableau::rowsum(std::size_t h, std::size_t i)
{
    // CHP phase bookkeeping: row h := row i * row h with the exponent
    // of the imaginary unit accumulated mod 4 (always 0 or 2 for
    // Hermitian products).
    int phase = 2 * (signs[h] ? 1 : 0) + 2 * (signs[i] ? 1 : 0);
    for (std::size_t j = 0; j < n; ++j) {
        const int x1 = xb(i, j), z1 = zb(i, j);
        const int x2 = xb(h, j), z2 = zb(h, j);
        if (x1 == 0 && z1 == 0)
            continue;
        if (x1 == 1 && z1 == 1)
            phase += z2 - x2;
        else if (x1 == 1)
            phase += z2 * (2 * x2 - 1);
        else
            phase += x2 * (1 - 2 * z2);
    }
    phase = ((phase % 4) + 4) % 4;
    // Only stabilizer rows must stay Hermitian: the measurement
    // update also folds the pivot into destabilizer rows, and the
    // pivot's own destabilizer partner *anticommutes* with it, so the
    // product legitimately picks up a factor of +/-i there.
    // Destabilizer signs are never read, so the parity is irrelevant.
    panic_if(h >= n && phase != 0 && phase != 2,
             "rowsum produced a non-Hermitian stabilizer");
    signs[h] = (phase == 2);
    for (std::size_t w = 0; w < words; ++w) {
        xbits[h * words + w] ^= xbits[i * words + w];
        zbits[h * words + w] ^= zbits[i * words + w];
    }
}

void
StabilizerTableau::h(std::size_t q)
{
    for (std::size_t row = 0; row < 2 * n; ++row) {
        const bool x = xb(row, q), z = zb(row, q);
        if (x && z)
            signs[row] = !signs[row];
        setx(row, q, z);
        setz(row, q, x);
    }
}

void
StabilizerTableau::s(std::size_t q)
{
    for (std::size_t row = 0; row < 2 * n; ++row) {
        const bool x = xb(row, q), z = zb(row, q);
        if (x && z)
            signs[row] = !signs[row];
        setz(row, q, z ^ x);
    }
}

void
StabilizerTableau::sdg(std::size_t q)
{
    s(q);
    s(q);
    s(q);
}

void
StabilizerTableau::x(std::size_t q)
{
    for (std::size_t row = 0; row < 2 * n; ++row) {
        if (zb(row, q))
            signs[row] = !signs[row];
    }
}

void
StabilizerTableau::y(std::size_t q)
{
    for (std::size_t row = 0; row < 2 * n; ++row) {
        if (xb(row, q) != zb(row, q))
            signs[row] = !signs[row];
    }
}

void
StabilizerTableau::z(std::size_t q)
{
    for (std::size_t row = 0; row < 2 * n; ++row) {
        if (xb(row, q))
            signs[row] = !signs[row];
    }
}

void
StabilizerTableau::cnot(std::size_t c, std::size_t t)
{
    for (std::size_t row = 0; row < 2 * n; ++row) {
        const bool xc = xb(row, c), zc = zb(row, c);
        const bool xt = xb(row, t), zt = zb(row, t);
        if (xc && zt && (xt == zc))
            signs[row] = !signs[row];
        setx(row, t, xt ^ xc);
        setz(row, c, zc ^ zt);
    }
}

void
StabilizerTableau::cz(std::size_t c, std::size_t t)
{
    h(t);
    cnot(c, t);
    h(t);
}

void
StabilizerTableau::swap(std::size_t a, std::size_t b)
{
    cnot(a, b);
    cnot(b, a);
    cnot(a, b);
}

bool
StabilizerTableau::measureIsDeterministic(std::size_t q) const
{
    for (std::size_t row = n; row < 2 * n; ++row) {
        if (xb(row, q))
            return false;
    }
    return true;
}

bool
StabilizerTableau::deterministicValue(std::size_t q) const
{
    panic_if(!measureIsDeterministic(q),
             "measurement outcome is not deterministic");

    // Accumulate the product of the stabilizer rows whose
    // destabilizer partners anticommute with Z_q; its sign is the
    // outcome. Local accumulator so the method stays const.
    std::vector<std::uint64_t> ax(words, 0), az(words, 0);
    int phase = 0;
    const auto bit = [&](const std::vector<std::uint64_t> &v,
                         std::size_t col) -> int {
        return (v[col / 64] >> (col % 64)) & 1;
    };
    for (std::size_t i = 0; i < n; ++i) {
        if (!xb(i, q))
            continue;
        const std::size_t row = n + i;
        phase += 2 * (signs[row] ? 1 : 0);
        for (std::size_t j = 0; j < n; ++j) {
            const int x1 = xb(row, j), z1 = zb(row, j);
            const int x2 = bit(ax, j), z2 = bit(az, j);
            if (x1 == 0 && z1 == 0)
                continue;
            if (x1 == 1 && z1 == 1)
                phase += z2 - x2;
            else if (x1 == 1)
                phase += z2 * (2 * x2 - 1);
            else
                phase += x2 * (1 - 2 * z2);
        }
        for (std::size_t w = 0; w < words; ++w) {
            ax[w] ^= xbits[row * words + w];
            az[w] ^= zbits[row * words + w];
        }
    }
    phase = ((phase % 4) + 4) % 4;
    panic_if(phase != 0 && phase != 2,
             "deterministic outcome accumulator went non-Hermitian");
    return phase == 2;
}

bool
StabilizerTableau::forceMeasure(std::size_t q, bool outcome)
{
    std::size_t p = 2 * n + 1;
    for (std::size_t row = n; row < 2 * n; ++row) {
        if (xb(row, q)) {
            p = row;
            break;
        }
    }
    if (p == 2 * n + 1)
        return deterministicValue(q);

    // Random outcome: project onto the chosen branch. The algebraic
    // update is outcome-independent; only the new stabilizer's sign
    // records the choice.
    for (std::size_t row = 0; row < 2 * n; ++row) {
        if (row != p && xb(row, q))
            rowsum(row, p);
    }
    rowcopy(p - n, p);
    rowclear(p);
    setz(p, q, true);
    signs[p] = outcome;
    return outcome;
}

bool
StabilizerTableau::qubitIsUnentangled(std::size_t q) const
{
    // The qubit factors out iff the stabilizer group projects onto a
    // rank-<=1 local Pauli group at q: at most one distinct nonzero
    // (x, z) pair among the stabilizer rows.
    int seen_x = -1, seen_z = -1;
    for (std::size_t row = n; row < 2 * n; ++row) {
        const int x = xb(row, q), z = zb(row, q);
        if (x == 0 && z == 0)
            continue;
        if (seen_x < 0) {
            seen_x = x;
            seen_z = z;
        } else if (x != seen_x || z != seen_z) {
            return false;
        }
    }
    return true;
}

// --- cliffordDecompose -----------------------------------------------------

std::optional<std::vector<CliffordOp>>
cliffordDecompose(const circuit::Instruction &inst)
{
    using K = CliffordOp::Kind;
    using circuit::GateKind;
    std::vector<CliffordOp> ops;

    if (inst.kind == GateKind::Breakpoint)
        return ops; // identity

    if (inst.kind == GateKind::PrepZ ||
        inst.kind == GateKind::Measure ||
        inst.kind == GateKind::Unitary)
        return std::nullopt;

    if (inst.controls.size() >= 2)
        return std::nullopt;

    if (inst.controls.empty()) {
        const std::size_t q = inst.targets.empty() ? 0 : inst.targets[0];
        switch (inst.kind) {
          case GateKind::H: ops.push_back({K::H, q, 0}); return ops;
          case GateKind::X: ops.push_back({K::X, q, 0}); return ops;
          case GateKind::Y: ops.push_back({K::Y, q, 0}); return ops;
          case GateKind::Z: ops.push_back({K::Z, q, 0}); return ops;
          case GateKind::S: ops.push_back({K::S, q, 0}); return ops;
          case GateKind::Sdg:
            ops.push_back({K::Sdg, q, 0});
            return ops;
          case GateKind::Swap:
            ops.push_back({K::Swap, inst.targets[0],
                           inst.targets[1]});
            return ops;
          case GateKind::Phase:
          case GateKind::Rz: {
            const auto k = quarterTurns(inst.angle);
            if (!k)
                return std::nullopt;
            appendQuarterPhase(ops, *k, q);
            return ops;
          }
          case GateKind::Rx: {
            const auto k = quarterTurns(inst.angle);
            if (!k)
                return std::nullopt;
            if (*k == 0)
                return ops;
            ops.push_back({K::H, q, 0});
            appendQuarterPhase(ops, *k, q);
            ops.push_back({K::H, q, 0});
            return ops;
          }
          case GateKind::Ry: {
            const auto k = quarterTurns(inst.angle);
            if (!k)
                return std::nullopt;
            if (*k == 0)
                return ops;
            // Ry = S Rx Sdg as matrices: circuit order Sdg, Rx, S.
            ops.push_back({K::Sdg, q, 0});
            ops.push_back({K::H, q, 0});
            appendQuarterPhase(ops, *k, q);
            ops.push_back({K::H, q, 0});
            ops.push_back({K::S, q, 0});
            return ops;
          }
          default:
            return std::nullopt; // T, Tdg, ...
        }
    }

    // Exactly one control: only exact Clifford identities qualify —
    // controlled forms that differ by a control-dependent global
    // phase (e.g. CRz(pi/2), CS) are NOT Clifford and are rejected.
    const std::size_t c = inst.controls[0];
    const std::size_t t = inst.targets.empty() ? 0 : inst.targets[0];
    switch (inst.kind) {
      case GateKind::X:
        ops.push_back({K::Cnot, c, t});
        return ops;
      case GateKind::Z:
        ops.push_back({K::Cz, c, t});
        return ops;
      case GateKind::Y:
        // CY = (I (x) S) CNOT (I (x) Sdg), exactly.
        ops.push_back({K::Sdg, t, 0});
        ops.push_back({K::Cnot, c, t});
        ops.push_back({K::S, t, 0});
        return ops;
      case GateKind::Phase: {
        const auto k = quarterTurns(inst.angle);
        if (!k)
            return std::nullopt;
        if (*k == 0)
            return ops;
        if (*k == 2) { // controlled diag(1,-1) is exactly CZ
            ops.push_back({K::Cz, c, t});
            return ops;
        }
        return std::nullopt;
      }
      case GateKind::Rz: {
        const auto k = quarterTurns(inst.angle);
        if (!k)
            return std::nullopt;
        if (*k == 0)
            return ops;
        if (*k == 2) { // CRz(pi) = Sdg(control) . CZ, exactly
            ops.push_back({K::Cz, c, t});
            ops.push_back({K::Sdg, c, 0});
            return ops;
        }
        return std::nullopt;
      }
      case GateKind::Rx: {
        const auto k = quarterTurns(inst.angle);
        if (!k)
            return std::nullopt;
        if (*k == 0)
            return ops;
        if (*k == 2) { // CRx(pi) = Sdg(control) . CNOT, exactly
            ops.push_back({K::Cnot, c, t});
            ops.push_back({K::Sdg, c, 0});
            return ops;
        }
        return std::nullopt;
      }
      case GateKind::Ry: {
        const auto k = quarterTurns(inst.angle);
        if (!k)
            return std::nullopt;
        if (*k == 0)
            return ops;
        if (*k == 2) { // CRy(pi) = Sdg(control) . CY, exactly
            ops.push_back({K::Sdg, t, 0});
            ops.push_back({K::Cnot, c, t});
            ops.push_back({K::S, t, 0});
            ops.push_back({K::Sdg, c, 0});
            return ops;
        }
        return std::nullopt;
      }
      default:
        return std::nullopt; // controlled H/S/Swap/...
    }
}

void
applyCliffordOps(StabilizerTableau &tab,
                 const std::vector<CliffordOp> &ops)
{
    using K = CliffordOp::Kind;
    for (const CliffordOp &op : ops) {
        switch (op.kind) {
          case K::H: tab.h(op.a); break;
          case K::S: tab.s(op.a); break;
          case K::Sdg: tab.sdg(op.a); break;
          case K::X: tab.x(op.a); break;
          case K::Y: tab.y(op.a); break;
          case K::Z: tab.z(op.a); break;
          case K::Cnot: tab.cnot(op.a, op.b); break;
          case K::Cz: tab.cz(op.a, op.b); break;
          case K::Swap: tab.swap(op.a, op.b); break;
        }
    }
}

// --- CliffordSimulation ----------------------------------------------------

CliffordSimulation::CliffordSimulation(const circuit::Circuit &circ)
{
    QSA_OBS_SPAN(span, "analyze.clifford");
    total = circ.size() + 1;
    StabilizerTableau tab(circ.numQubits());
    tableaus.push_back(tab);
    decidable = 0;

    const auto &insts = circ.instructions();
    for (std::size_t k = 0; k < insts.size(); ++k) {
        const circuit::Instruction &inst = insts[k];
        const auto top = [&](const std::string &why) {
            reason = "instruction " + std::to_string(k) + " (" +
                     circuit::gateKindName(inst.kind) + "): " + why;
        };

        bool fires = true;
        if (!inst.condLabel.empty()) {
            const auto it = recorded.find(inst.condLabel);
            if (it == recorded.end()) {
                top("condition reads label '" + inst.condLabel +
                    "' with no statically known value");
                break;
            }
            fires = (it->second == inst.condValue);
        }

        if (!fires) {
            // Statically dead conditional: exact no-op.
        } else if (inst.kind == circuit::GateKind::PrepZ) {
            const std::size_t q = inst.targets[0];
            if (tab.measureIsDeterministic(q)) {
                const bool value = tab.deterministicValue(q);
                if (value != (inst.bit & 1))
                    tab.x(q);
            } else if (tab.qubitIsUnentangled(q)) {
                // Measuring a product qubit leaves the rest factor
                // untouched in every branch; force the prepared value.
                tab.forceMeasure(q, inst.bit & 1);
            } else {
                top("reset of an entangled qubit leaves a data-"
                    "dependent mixture");
                break;
            }
        } else if (inst.kind == circuit::GateKind::Measure) {
            std::uint64_t value = 0;
            bool ok = true;
            for (std::size_t i = 0; i < inst.targets.size(); ++i) {
                if (!tab.measureIsDeterministic(inst.targets[i])) {
                    top("nondeterministic measurement outcome "
                        "branches the state");
                    ok = false;
                    break;
                }
                value |= std::uint64_t(
                             tab.deterministicValue(inst.targets[i]))
                         << i;
            }
            if (!ok)
                break;
            recorded[inst.label] = value;
        } else {
            const auto ops = cliffordDecompose(inst);
            if (!ops) {
                top("outside the Clifford fragment");
                break;
            }
            applyCliffordOps(tab, *ops);
        }

        tableaus.push_back(tab);
        decidable = k + 1;
    }
    QSA_OBS_COUNTER("analyze.clifford.boundaries", decidable + 1);
    span.arg("boundaries", total).arg("decidable", decidable);
}

const StabilizerTableau &
CliffordSimulation::tableauAt(std::size_t b) const
{
    fatal_if(!decidableAt(b), "boundary ", b,
             " is past the decidable Clifford prefix (", decidable,
             ")", reason.empty() ? "" : ": " + reason);
    return tableaus[b];
}

locate::BoundaryPredicate
CliffordSimulation::predicateAt(std::size_t b,
                                const circuit::QubitRegister &reg) const
{
    fatal_if(!decidableAt(b), "boundary ", b,
             " is past the decidable Clifford prefix (", decidable,
             ")", reason.empty() ? "" : ": " + reason);
    fatal_if(reg.width() == 0,
             "static predicate needs a non-empty register");
    fatal_if(reg.width() > 24,
             "register too wide for dense static predicates");

    const std::vector<unsigned> qubits = reg.qubits();
    const std::size_t width = qubits.size();

    // Force-measure the register sequentially on a tableau copy.
    // Which positions come out random is outcome-independent, so one
    // all-zeros pass finds the base point and the free set, and one
    // extra pass per free position recovers the affine generators.
    const auto run = [&](std::uint64_t forced,
                         std::vector<bool> *free_out) -> std::uint64_t {
        StabilizerTableau t = tableaus[b];
        std::uint64_t v = 0;
        for (std::size_t k = 0; k < width; ++k) {
            bool bit;
            if (t.measureIsDeterministic(qubits[k])) {
                bit = t.deterministicValue(qubits[k]);
                if (free_out)
                    (*free_out)[k] = false;
            } else {
                bit = (forced >> k) & 1;
                t.forceMeasure(qubits[k], bit);
                if (free_out)
                    (*free_out)[k] = true;
            }
            v |= std::uint64_t(bit) << k;
        }
        return v;
    };

    std::vector<bool> is_free(width, false);
    const std::uint64_t v0 = run(0, &is_free);
    std::vector<std::size_t> free_positions;
    for (std::size_t k = 0; k < width; ++k) {
        if (is_free[k])
            free_positions.push_back(k);
    }

    locate::BoundaryPredicate pred;
    if (free_positions.empty()) {
        pred.kind = assertions::AssertionKind::Classical;
        pred.expectedValue = v0;
        return pred;
    }
    if (free_positions.size() == width) {
        // The generators are triangular over the free positions, so
        // a fully free register spans the whole domain uniformly.
        pred.kind = assertions::AssertionKind::Superposition;
        return pred;
    }

    std::vector<std::uint64_t> gens;
    for (std::size_t f : free_positions)
        gens.push_back(run(std::uint64_t(1) << f, nullptr) ^ v0);

    pred.kind = assertions::AssertionKind::Distribution;
    pred.expectedProbs.assign(pow2(width), 0.0);
    const double p = 1.0 / static_cast<double>(pow2(gens.size()));
    for (std::uint64_t combo = 0; combo < pow2(gens.size()); ++combo) {
        std::uint64_t v = v0;
        for (std::size_t g = 0; g < gens.size(); ++g) {
            if ((combo >> g) & 1)
                v ^= gens[g];
        }
        pred.expectedProbs[v] = p;
    }
    return pred;
}

// --- CliffordUnitary -------------------------------------------------------

CliffordUnitary::CliffordUnitary(std::size_t num_qubits)
    : n(num_qubits), xbits(), zbits(), signs(2 * num_qubits, false),
      words((num_qubits + 63) / 64)
{
    fatal_if(n == 0, "clifford unitary needs at least one qubit");
    xbits.assign(2 * n * words, 0);
    zbits.assign(2 * n * words, 0);
    for (std::size_t q = 0; q < n; ++q) {
        xbits[q * words + q / 64] |= std::uint64_t(1) << (q % 64);
        zbits[(n + q) * words + q / 64] |= std::uint64_t(1)
                                           << (q % 64);
    }
}

void
CliffordUnitary::rowop(std::size_t row, const CliffordOp &op)
{
    using K = CliffordOp::Kind;
    const auto getx = [&](std::size_t col) -> bool {
        return (xbits[row * words + col / 64] >> (col % 64)) & 1;
    };
    const auto getz = [&](std::size_t col) -> bool {
        return (zbits[row * words + col / 64] >> (col % 64)) & 1;
    };
    const auto putx = [&](std::size_t col, bool v) {
        const std::uint64_t mask = std::uint64_t(1) << (col % 64);
        if (v)
            xbits[row * words + col / 64] |= mask;
        else
            xbits[row * words + col / 64] &= ~mask;
    };
    const auto putz = [&](std::size_t col, bool v) {
        const std::uint64_t mask = std::uint64_t(1) << (col % 64);
        if (v)
            zbits[row * words + col / 64] |= mask;
        else
            zbits[row * words + col / 64] &= ~mask;
    };

    switch (op.kind) {
      case K::H: {
        const bool x = getx(op.a), z = getz(op.a);
        if (x && z)
            signs[row] = !signs[row];
        putx(op.a, z);
        putz(op.a, x);
        break;
      }
      case K::S: {
        const bool x = getx(op.a), z = getz(op.a);
        if (x && z)
            signs[row] = !signs[row];
        putz(op.a, z ^ x);
        break;
      }
      case K::Sdg:
        rowop(row, {K::S, op.a, 0});
        rowop(row, {K::S, op.a, 0});
        rowop(row, {K::S, op.a, 0});
        break;
      case K::X:
        if (getz(op.a))
            signs[row] = !signs[row];
        break;
      case K::Y:
        if (getx(op.a) != getz(op.a))
            signs[row] = !signs[row];
        break;
      case K::Z:
        if (getx(op.a))
            signs[row] = !signs[row];
        break;
      case K::Cnot: {
        const bool xc = getx(op.a), zc = getz(op.a);
        const bool xt = getx(op.b), zt = getz(op.b);
        if (xc && zt && (xt == zc))
            signs[row] = !signs[row];
        putx(op.b, xt ^ xc);
        putz(op.a, zc ^ zt);
        break;
      }
      case K::Cz:
        rowop(row, {K::H, op.b, 0});
        rowop(row, {K::Cnot, op.a, op.b});
        rowop(row, {K::H, op.b, 0});
        break;
      case K::Swap:
        rowop(row, {K::Cnot, op.a, op.b});
        rowop(row, {K::Cnot, op.b, op.a});
        rowop(row, {K::Cnot, op.a, op.b});
        break;
    }
}

void
CliffordUnitary::apply(const CliffordOp &op)
{
    for (std::size_t row = 0; row < 2 * n; ++row)
        rowop(row, op);
}

void
CliffordUnitary::apply(const std::vector<CliffordOp> &ops)
{
    for (const CliffordOp &op : ops)
        apply(op);
}

bool
CliffordUnitary::operator==(const CliffordUnitary &other) const
{
    return n == other.n && xbits == other.xbits &&
           zbits == other.zbits && signs == other.signs;
}

// --- equivalentPrefixBoundary ----------------------------------------------

namespace
{

/** Sorted copy of a qubit list. */
circuit::QubitList
sortedQubits(circuit::QubitList qubits)
{
    std::sort(qubits.begin(), qubits.end());
    return qubits;
}

/** True for kinds whose operand order is irrelevant (fully symmetric
 *  diagonal gates: Z / Phase with any controls). */
bool
symmetricOperands(const circuit::Instruction &inst)
{
    return inst.kind == circuit::GateKind::Z ||
           inst.kind == circuit::GateKind::Phase;
}

/** Union of controls and targets, sorted. */
std::vector<unsigned>
operandUnion(const circuit::Instruction &inst)
{
    std::vector<unsigned> all(inst.controls.begin(), inst.controls.end());
    all.insert(all.end(), inst.targets.begin(), inst.targets.end());
    std::sort(all.begin(), all.end());
    return all;
}

/** Structural instruction equality modulo canonical operand order. */
bool
structurallyEqual(const circuit::Circuit &sc,
                  const circuit::Instruction &a,
                  const circuit::Circuit &rc,
                  const circuit::Instruction &b)
{
    using circuit::GateKind;
    if (a.kind != b.kind)
        return false;
    if (a.condLabel != b.condLabel)
        return false;
    if (!a.condLabel.empty() && a.condValue != b.condValue)
        return false;
    if (circuit::gateKindHasAngle(a.kind) &&
        std::abs(a.angle - b.angle) > kExactTol)
        return false;

    switch (a.kind) {
      case GateKind::PrepZ:
        return a.targets == b.targets && (a.bit & 1) == (b.bit & 1);
      case GateKind::Measure:
        // Target order packs the label's bits; it must match exactly.
        return a.targets == b.targets && a.label == b.label;
      case GateKind::Breakpoint:
        return a.label == b.label;
      case GateKind::Unitary:
        return a.targets == b.targets &&
               sortedQubits(a.controls) == sortedQubits(b.controls) &&
               sc.matrix(a.matrixId).distance(rc.matrix(b.matrixId)) <=
                   kExactTol;
      case GateKind::Swap:
        return sortedQubits(a.targets) == sortedQubits(b.targets) &&
               sortedQubits(a.controls) == sortedQubits(b.controls);
      default:
        if (symmetricOperands(a))
            return operandUnion(a) == operandUnion(b);
        return a.targets == b.targets &&
               sortedQubits(a.controls) == sortedQubits(b.controls);
    }
}

/** True when `inst` can join an unconditioned Clifford run. */
bool
joinsCliffordRun(const circuit::Instruction &inst,
                 std::vector<CliffordOp> &ops)
{
    if (!inst.condLabel.empty())
        return false;
    if (inst.kind == circuit::GateKind::Breakpoint)
        return false; // an observation point is a barrier
    const auto decomposed = cliffordDecompose(inst);
    if (!decomposed)
        return false;
    ops.insert(ops.end(), decomposed->begin(), decomposed->end());
    return true;
}

} // anonymous namespace

namespace
{

/**
 * Certificate-store key for one (suspect, reference) pair. Both
 * content hashes go into the key, so any edit to either program
 * invalidates the cached boundary.
 */
std::string
prefixCertKey(const circuit::Circuit &suspect,
              const circuit::Circuit &reference)
{
    std::ostringstream os;
    os << "v2:" << std::hex << suspect.contentHash() << ":"
       << reference.contentHash();
    return os.str();
}

bool
restorePrefixCert(const std::string &payload, std::size_t *boundary)
{
    json::Value doc;
    if (!json::Value::parse(payload, &doc))
        return false;
    try {
        if (doc.find("v") == nullptr ||
            doc.find("v")->asUint64() != 1 ||
            doc.find("boundary") == nullptr)
            return false;
        *boundary = doc.find("boundary")->asUint64();
        return true;
    } catch (const json::TypeError &) {
        return false;
    }
}

} // anonymous namespace

std::size_t
equivalentPrefixBoundary(const circuit::Circuit &suspect,
                         const circuit::Circuit &reference)
{
    QSA_OBS_SPAN(span, "analyze.equiv");
    if (suspect.numQubits() != reference.numQubits()) {
        span.arg("boundary", 0);
        return 0;
    }

    // The tableau sweep is pure in the two programs, so a persisted
    // certificate (when a store is installed) stands in for the whole
    // computation.
    common::ArtifactStore *store = common::artifactStore();
    std::string key;
    if (store != nullptr) {
        key = prefixCertKey(suspect, reference);
        std::string payload;
        std::size_t cached = 0;
        if (store->load("prefix_cert", key, &payload) &&
            restorePrefixCert(payload, &cached)) {
            QSA_OBS_COUNTER("analyze.equiv.certified_boundaries",
                            cached);
            span.arg("boundary", cached);
            return cached;
        }
    }

    const auto &si = suspect.instructions();
    const auto &ri = reference.instructions();
    const std::size_t limit = std::min(si.size(), ri.size());

    std::size_t i = 0;
    std::size_t certified = 0;
    while (i < limit) {
        if (structurallyEqual(suspect, si[i], reference, ri[i])) {
            ++i;
            certified = i;
            continue;
        }

        // Structural mismatch: try to match equal-length Clifford
        // runs by their conjugation tableaux (catches commuting
        // reorderings and re-expressed gate identities).
        std::vector<CliffordOp> sops, rops;
        std::size_t js = i, jr = i;
        while (js < si.size() && joinsCliffordRun(si[js], sops))
            ++js;
        while (jr < ri.size() && joinsCliffordRun(ri[jr], rops))
            ++jr;
        if (js == jr && js > i) {
            CliffordUnitary us(suspect.numQubits());
            CliffordUnitary ur(reference.numQubits());
            us.apply(sops);
            ur.apply(rops);
            if (us == ur) {
                i = js;
                certified = js;
                continue;
            }
        }
        break;
    }

    if (store != nullptr) {
        json::Value doc = json::Value::object();
        doc.set("v", json::Value::integer(1));
        doc.set("boundary", json::Value::integer(certified));
        store->store("prefix_cert", key, doc.dump());
    }

    QSA_OBS_COUNTER("analyze.equiv.certified_boundaries", certified);
    span.arg("boundary", certified);
    return certified;
}

} // namespace qsa::analyze
