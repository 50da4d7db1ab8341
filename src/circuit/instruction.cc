/**
 * @file
 * Gate-kind helpers.
 */

#include "circuit/instruction.hh"

#include "common/logging.hh"

namespace qsa::circuit
{

void
QubitList::grow(std::size_t need)
{
    panic_if(need > UINT32_MAX, "qubit list of ", need, " qubits");
    const std::size_t next = std::max(need, 2 * std::size_t{cap});
    auto *block = new unsigned[next];
    std::copy(items, items + count, block);
    release();
    items = block;
    cap = static_cast<std::uint32_t>(next);
}

bool
operator==(const QubitList &a, const QubitList &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

bool
operator==(const QubitList &a, const std::vector<unsigned> &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

bool
operator==(const std::vector<unsigned> &a, const QubitList &b)
{
    return b == a;
}

bool
operator!=(const QubitList &a, const QubitList &b)
{
    return !(a == b);
}

bool
operator!=(const QubitList &a, const std::vector<unsigned> &b)
{
    return !(a == b);
}

bool
operator!=(const std::vector<unsigned> &a, const QubitList &b)
{
    return !(a == b);
}

std::string
gateKindName(GateKind kind)
{
    switch (kind) {
      case GateKind::PrepZ: return "prepz";
      case GateKind::H: return "h";
      case GateKind::X: return "x";
      case GateKind::Y: return "y";
      case GateKind::Z: return "z";
      case GateKind::S: return "s";
      case GateKind::Sdg: return "sdg";
      case GateKind::T: return "t";
      case GateKind::Tdg: return "tdg";
      case GateKind::Rx: return "rx";
      case GateKind::Ry: return "ry";
      case GateKind::Rz: return "rz";
      case GateKind::Phase: return "u1";
      case GateKind::Swap: return "swap";
      case GateKind::Unitary: return "unitary";
      case GateKind::Measure: return "measure";
      case GateKind::Breakpoint: return "breakpoint";
    }
    panic("unknown gate kind");
}

bool
gateKindHasAngle(GateKind kind)
{
    switch (kind) {
      case GateKind::Rx:
      case GateKind::Ry:
      case GateKind::Rz:
      case GateKind::Phase:
        return true;
      default:
        return false;
    }
}

bool
gateKindInvertible(GateKind kind)
{
    switch (kind) {
      case GateKind::PrepZ:
      case GateKind::Measure:
      case GateKind::Breakpoint:
        return false;
      default:
        return true;
    }
}

} // namespace qsa::circuit
