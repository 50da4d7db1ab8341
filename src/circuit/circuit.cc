/**
 * @file
 * Circuit implementation.
 */

#include "circuit/circuit.hh"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/bits.hh"
#include "common/logging.hh"
#include "obs/obs.hh"

namespace qsa::circuit
{

Circuit::Circuit(unsigned num_qubits) : nQubits(num_qubits)
{
}

QubitRegister
Circuit::addRegister(const std::string &name, unsigned width)
{
    fatal_if(width == 0, "register '", name, "' must have width > 0");
    fatal_if(width > std::numeric_limits<unsigned>::max() - nQubits,
             "register '", name, "' takes the circuit past ",
             std::numeric_limits<unsigned>::max(), " qubits");
    for (const auto &r : regs)
        fatal_if(r.name() == name, "duplicate register name '", name, "'");

    std::vector<unsigned> qubits(width);
    for (unsigned i = 0; i < width; ++i)
        qubits[i] = nQubits + i;
    nQubits += width;

    regs.emplace_back(name, std::move(qubits));
    return regs.back();
}

const QubitRegister &
Circuit::reg(const std::string &name) const
{
    for (const auto &r : regs) {
        if (r.name() == name)
            return r;
    }
    fatal("no register named '", name, "'");
}

void
Circuit::checkQubit(unsigned q) const
{
    fatal_if(q >= nQubits, "qubit ", q, " out of range (circuit has ",
             nQubits, " qubits)");
}

namespace
{

/** Qubit lists up to this long are checked for repeats pairwise. */
constexpr std::size_t kPairwiseScan = 16;

/**
 * True when some qubit occurs twice in `qubits`. A list holds a few
 * qubits, so a pairwise scan needs no allocation; only a wide Measure
 * or Unitary list is sorted, in a copy.
 */
bool
hasRepeat(const QubitList &qubits)
{
    if (qubits.size() > kPairwiseScan) {
        std::vector<unsigned> sorted(qubits.begin(), qubits.end());
        std::sort(sorted.begin(), sorted.end());
        return std::adjacent_find(sorted.begin(), sorted.end()) !=
               sorted.end();
    }
    for (auto it = qubits.begin(); it != qubits.end(); ++it) {
        if (std::find(qubits.begin(), it, *it) != it)
            return true;
    }
    return false;
}

/** A breakpoint marker. */
Instruction
marker(std::string label)
{
    Instruction i;
    i.kind = GateKind::Breakpoint;
    i.label = std::move(label);
    return i;
}

/**
 * True when `label` is "<prefix><k>" for a boundary k <= last: a name
 * withBoundaryBreakpoints(prefix) generates (std::to_string never
 * pads with zeros).
 */
bool
namesBoundary(const std::string &label, const std::string &prefix,
              std::size_t last)
{
    if (label.size() <= prefix.size() ||
        label.compare(0, prefix.size(), prefix) != 0)
        return false;
    if (label.size() > prefix.size() + 1 && label[prefix.size()] == '0')
        return false;
    std::size_t k = 0;
    for (std::size_t i = prefix.size(); i < label.size(); ++i) {
        if (label[i] < '0' || label[i] > '9' || k > last)
            return false;
        k = 10 * k + static_cast<std::size_t>(label[i] - '0');
    }
    return k <= last;
}

/**
 * Replace a copied instruction by its adjoint (a Unitary's matrix is
 * left to the caller). A classically-conditioned gate inverts to its
 * adjoint under the same condition: `if (c == v) U` then
 * `if (c == v) U+` cancels exactly, provided the record `c` is not
 * rewritten in between — an invariant only the caller can guarantee
 * (see Circuit::inverse), so it is opt-in.
 */
void
invertInPlace(Instruction &inst, bool invert_conditioned)
{
    if (!gateKindInvertible(inst.kind))
        fatal("cannot invert non-unitary instruction ",
              gateKindName(inst.kind));
    fatal_if(!invert_conditioned && !inst.condLabel.empty(),
             "cannot invert a classically-conditioned instruction");
    switch (inst.kind) {
      case GateKind::S:
        inst.kind = GateKind::Sdg;
        break;
      case GateKind::Sdg:
        inst.kind = GateKind::S;
        break;
      case GateKind::T:
        inst.kind = GateKind::Tdg;
        break;
      case GateKind::Tdg:
        inst.kind = GateKind::T;
        break;
      case GateKind::Rx:
      case GateKind::Ry:
      case GateKind::Rz:
      case GateKind::Phase:
        inst.angle = -inst.angle;
        break;
      default:
        break; // self-inverse (H, X, Y, Z, Swap), or a Unitary
    }
}

} // anonymous namespace

void
Circuit::validate(const Instruction &inst) const
{
    // validate runs on every appended instruction, copies included,
    // so each check builds its message only when it fails.
    for (unsigned q : inst.targets)
        checkQubit(q);
    for (unsigned q : inst.controls)
        checkQubit(q);

    const auto &targets = inst.targets;
    const auto &controls = inst.controls;
    if (hasRepeat(targets))
        fatal("duplicate target qubits in ", gateKindName(inst.kind));
    for (auto c = controls.begin(); c != controls.end(); ++c) {
        // Earlier controls count as taken too, so a repeated control
        // is reported as a collision.
        if (std::find(targets.begin(), targets.end(), *c) !=
                targets.end() ||
            std::find(controls.begin(), c, *c) != c)
            fatal("control qubit ", *c, " collides with a target in ",
                  gateKindName(inst.kind));
    }

    switch (inst.kind) {
      case GateKind::Swap:
        fatal_if(targets.size() != 2, "swap needs two targets");
        break;
      case GateKind::Unitary:
        fatal_if(inst.matrixId < 0 ||
                     inst.matrixId >= static_cast<int>(matrices.size()),
                 "unitary instruction with invalid matrix id");
        fatal_if(matrices[inst.matrixId].dim() != pow2(targets.size()),
                 "unitary dimension does not match target count");
        break;
      case GateKind::Measure:
      case GateKind::Breakpoint:
        if (!controls.empty())
            fatal(gateKindName(inst.kind), " cannot be controlled");
        break;
      case GateKind::PrepZ:
        fatal_if(!controls.empty(), "prepz cannot be controlled");
        fatal_if(targets.size() != 1, "prepz takes one target");
        break;
      default:
        if (targets.size() != 1)
            fatal(gateKindName(inst.kind), " takes exactly one target");
        break;
    }
}

void
Circuit::append(Instruction inst)
{
    validate(inst);
    insts.push_back(std::move(inst));
}

void
Circuit::conditionLast(const std::string &label, std::uint64_t value)
{
    fatal_if(insts.empty(), "no instruction to condition");
    Instruction &inst = insts.back();
    fatal_if(inst.kind == GateKind::Breakpoint ||
                 inst.kind == GateKind::Measure,
             "cannot condition ", gateKindName(inst.kind));
    fatal_if(label.empty(), "condition label must be non-empty");
    inst.condLabel = label;
    inst.condValue = value;
}

void
Circuit::prepZ(unsigned q, unsigned bit)
{
    Instruction i;
    i.kind = GateKind::PrepZ;
    i.targets = {q};
    i.bit = bit & 1;
    append(std::move(i));
}

void
Circuit::prepRegister(const QubitRegister &r, std::uint64_t value)
{
    for (unsigned i = 0; i < r.width(); ++i)
        prepZ(r[i], static_cast<unsigned>((value >> i) & 1));
}

namespace
{

/** A gate instruction (the builders' lists fit inline). */
Instruction
gate(GateKind kind, QubitList controls, QubitList targets,
     double angle = 0.0)
{
    Instruction i;
    i.kind = kind;
    i.controls = std::move(controls);
    i.targets = std::move(targets);
    i.angle = angle;
    return i;
}

} // anonymous namespace

void Circuit::h(unsigned q) { append(gate(GateKind::H, {}, {q})); }
void Circuit::x(unsigned q) { append(gate(GateKind::X, {}, {q})); }
void Circuit::y(unsigned q) { append(gate(GateKind::Y, {}, {q})); }
void Circuit::z(unsigned q) { append(gate(GateKind::Z, {}, {q})); }
void Circuit::s(unsigned q) { append(gate(GateKind::S, {}, {q})); }
void Circuit::sdg(unsigned q) { append(gate(GateKind::Sdg, {}, {q})); }
void Circuit::t(unsigned q) { append(gate(GateKind::T, {}, {q})); }
void Circuit::tdg(unsigned q) { append(gate(GateKind::Tdg, {}, {q})); }

void
Circuit::rx(unsigned q, double angle)
{
    append(gate(GateKind::Rx, {}, {q}, angle));
}

void
Circuit::ry(unsigned q, double angle)
{
    append(gate(GateKind::Ry, {}, {q}, angle));
}

void
Circuit::rz(unsigned q, double angle)
{
    append(gate(GateKind::Rz, {}, {q}, angle));
}

void
Circuit::phase(unsigned q, double angle)
{
    append(gate(GateKind::Phase, {}, {q}, angle));
}

void
Circuit::controlledGate(GateKind kind,
                        const std::vector<unsigned> &controls,
                        unsigned target, double angle)
{
    append(gate(kind, controls, {target}, angle));
}

void
Circuit::cnot(unsigned ctrl, unsigned tgt)
{
    append(gate(GateKind::X, {ctrl}, {tgt}));
}

void
Circuit::ccnot(unsigned c0, unsigned c1, unsigned tgt)
{
    append(gate(GateKind::X, {c0, c1}, {tgt}));
}

void
Circuit::cz(unsigned ctrl, unsigned tgt)
{
    append(gate(GateKind::Z, {ctrl}, {tgt}));
}

void
Circuit::crz(unsigned ctrl, unsigned tgt, double angle)
{
    append(gate(GateKind::Rz, {ctrl}, {tgt}, angle));
}

void
Circuit::cphase(unsigned ctrl, unsigned tgt, double angle)
{
    append(gate(GateKind::Phase, {ctrl}, {tgt}, angle));
}

void
Circuit::ccphase(unsigned c0, unsigned c1, unsigned tgt, double angle)
{
    append(gate(GateKind::Phase, {c0, c1}, {tgt}, angle));
}

void
Circuit::swap(unsigned q0, unsigned q1)
{
    append(gate(GateKind::Swap, {}, {q0, q1}));
}

void
Circuit::cswap(unsigned ctrl, unsigned q0, unsigned q1)
{
    append(gate(GateKind::Swap, {ctrl}, {q0, q1}));
}

void
Circuit::unitary(const sim::CMatrix &u,
                 const std::vector<unsigned> &qubits,
                 const std::vector<unsigned> &controls)
{
    Instruction i;
    i.kind = GateKind::Unitary;
    i.targets = qubits;
    i.controls = controls;
    i.matrixId = addMatrix(u);
    append(std::move(i));
}

void
Circuit::measure(const QubitRegister &r, const std::string &label)
{
    measureQubits(r.qubits(), label);
}

void
Circuit::measureQubits(const std::vector<unsigned> &qubits,
                       const std::string &label)
{
    Instruction i;
    i.kind = GateKind::Measure;
    i.targets = qubits;
    i.label = label;
    append(std::move(i));
}

void
Circuit::breakpoint(const std::string &label)
{
    fatal_if(label.empty(), "breakpoints need a label");
    for (const auto &inst : insts)
        fatal_if(inst.kind == GateKind::Breakpoint && inst.label == label,
                 "duplicate breakpoint label '", label, "'");
    append(marker(label));
}

void
Circuit::reserveFor(std::size_t n)
{
    if (n <= insts.capacity())
        return;
    std::size_t capacity = 1;
    while (capacity < n)
        capacity *= 2;
    insts.reserve(capacity);
}

void
Circuit::copyRange(const Circuit &src, std::size_t begin, std::size_t end,
                   const RangeCopy &how,
                   const std::vector<unsigned> *controls,
                   const std::string &markers)
{
    fatal_if(begin > end || end > src.insts.size(),
             "invalid instruction range [", begin, ", ", end, ")");
    const std::size_t count = end - begin;
    // Reserved up front, so no copy below moves the vector: `from`
    // stays valid even when src is *this.
    reserveFor(insts.size() + count + (markers.empty() ? 0 : count + 1));
    const bool skip_markers = how.skipMarkers || controls != nullptr;
    std::size_t copied = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t k = how.adjoint ? end - 1 - i : begin + i;
        if (!markers.empty())
            append(marker(markers + std::to_string(k)));
        const Instruction &from = src.insts[k];
        if (skip_markers && from.kind == GateKind::Breakpoint)
            continue; // markers do not survive wrapping or stripping

        // Copied straight into place, rewritten there, then
        // validated; a rejected copy is taken out again.
        Instruction &inst = insts.emplace_back(from);
        try {
            if (how.adjoint)
                invertInPlace(inst, how.invertConditioned);
            if (controls != nullptr) {
                if (!gateKindInvertible(inst.kind))
                    fatal("cannot control non-unitary instruction ",
                          gateKindName(inst.kind));
                fatal_if(!inst.condLabel.empty(),
                         "cannot add quantum controls to a classically-"
                         "conditioned instruction");
                inst.controls.append(controls->data(),
                                     controls->data() + controls->size());
            }
            if (inst.kind == GateKind::Unitary) {
                const sim::CMatrix &m = src.matrix(inst.matrixId);
                inst.matrixId = addMatrix(how.adjoint ? m.adjoint() : m);
            }
            validate(inst);
        } catch (...) {
            insts.pop_back();
            throw;
        }
        ++copied;
    }
    if (!markers.empty())
        append(marker(markers + std::to_string(end)));
    QSA_OBS_COUNTER("circuit.copied_instructions", copied);
}

void
Circuit::appendRange(const Circuit &src, std::size_t begin,
                     std::size_t end, const RangeCopy &how)
{
    fatal_if(src.nQubits > nQubits,
             "appended circuit uses more qubits than the target");
    copyRange(src, begin, end, how);
}

void
Circuit::appendCircuit(const Circuit &other)
{
    appendRange(other, 0, other.size());
}

void
Circuit::appendControlled(const Circuit &other,
                          const std::vector<unsigned> &controls)
{
    fatal_if(other.nQubits > nQubits,
             "appended circuit uses more qubits than the target");
    copyRange(other, 0, other.size(), RangeCopy(), &controls);
}

Circuit
Circuit::inverse(bool invert_conditioned) const
{
    Circuit inv(nQubits);
    inv.regs = regs;
    RangeCopy how;
    how.adjoint = true;
    how.invertConditioned = invert_conditioned;
    inv.copyRange(*this, 0, insts.size(), how);
    return inv;
}

const sim::CMatrix &
Circuit::matrix(int id) const
{
    panic_if(id < 0 || id >= static_cast<int>(matrices.size()),
             "invalid matrix id ", id);
    return matrices[id];
}

int
Circuit::addMatrix(const sim::CMatrix &m)
{
    matrices.push_back(m);
    return static_cast<int>(matrices.size()) - 1;
}

std::vector<std::string>
Circuit::breakpointLabels() const
{
    std::vector<std::string> labels;
    for (const auto &inst : insts) {
        if (inst.kind == GateKind::Breakpoint)
            labels.push_back(inst.label);
    }
    return labels;
}

bool
Circuit::hasBreakpoint(const std::string &label) const
{
    for (const auto &inst : insts) {
        if (inst.kind == GateKind::Breakpoint && inst.label == label)
            return true;
    }
    return false;
}

std::size_t
Circuit::breakpointPosition(const std::string &label) const
{
    for (std::size_t i = 0; i < insts.size(); ++i) {
        if (insts[i].kind == GateKind::Breakpoint &&
            insts[i].label == label)
            return i;
    }
    fatal("no breakpoint labelled '", label, "'");
}

Circuit
Circuit::withBoundaryBreakpoints(const std::string &prefix) const
{
    fatal_if(prefix.empty(), "boundary breakpoints need a label prefix");
    // A source breakpoint named like a generated marker would be a
    // second marker with its label, wherever it sits.
    for (const auto &inst : insts)
        fatal_if(inst.kind == GateKind::Breakpoint &&
                     namesBoundary(inst.label, prefix, insts.size()),
                 "duplicate breakpoint label '", inst.label, "'");

    Circuit out(nQubits);
    out.regs = regs;
    out.copyRange(*this, 0, insts.size(), RangeCopy(), nullptr, prefix);
    return out;
}

Circuit
Circuit::prefixUpTo(const std::string &bp_label) const
{
    return sliceRange(0, breakpointPosition(bp_label));
}

Circuit
Circuit::sliceRange(std::size_t begin, std::size_t end) const
{
    Circuit slice(nQubits);
    slice.regs = regs;
    slice.copyRange(*this, begin, end, RangeCopy());
    return slice;
}

void
Circuit::truncate(std::size_t new_size)
{
    fatal_if(new_size > insts.size(), "cannot truncate upward");
    insts.resize(new_size);
}

std::size_t
Circuit::depth() const
{
    std::vector<std::size_t> ready(nQubits, 0);
    std::size_t depth = 0;
    for (const auto &inst : insts) {
        if (inst.kind == GateKind::Breakpoint)
            continue;
        std::size_t slot = 0;
        for (unsigned q : inst.targets)
            slot = std::max(slot, ready[q]);
        for (unsigned q : inst.controls)
            slot = std::max(slot, ready[q]);
        ++slot;
        for (unsigned q : inst.targets)
            ready[q] = slot;
        for (unsigned q : inst.controls)
            ready[q] = slot;
        depth = std::max(depth, slot);
    }
    return depth;
}

std::map<std::string, std::size_t>
Circuit::gateCounts() const
{
    std::map<std::string, std::size_t> counts;
    for (const auto &inst : insts) {
        std::string key = gateKindName(inst.kind);
        if (!inst.controls.empty())
            key = std::string(inst.controls.size(), 'c') + key;
        ++counts[key];
    }
    return counts;
}

namespace {

/**
 * The one hasher behind contentHash and chainHash. Every field is
 * reduced to 64-bit words in a fixed encoding (strings as their
 * length, then their bytes packed eight to a word in little-endian
 * order), so the digest does not depend on host integer width or
 * endianness. Each word is mixed in with one step of MurmurHash64A:
 * the word is scrambled on its own, then xored into the state and
 * multiplied. A step is a bijection of the state for a fixed word and
 * of the word for a fixed state, so two encodings of the same length
 * that differ in one word always hash differently.
 */
struct ContentHasher {
    static constexpr std::uint64_t kMul = 0xc6a4a7935bd1e995ULL;

    std::uint64_t h = 0x6a09e667f3bcc908ULL;

    void u64(std::uint64_t w)
    {
        w *= kMul;
        w ^= w >> 47;
        w *= kMul;
        h = (h ^ w) * kMul;
    }

    /** Two 32-bit values as one word, `lo` in the low half. */
    void u32Pair(std::uint32_t lo, std::uint32_t hi)
    {
        u64(lo | (static_cast<std::uint64_t>(hi) << 32));
    }

    void str(const std::string &s)
    {
        u64(s.size());
        const auto *bytes =
            reinterpret_cast<const unsigned char *>(s.data());
        std::size_t i = 0;
        for (; i + 8 <= s.size(); i += 8)
            u64(littleEndianWord(bytes + i, 8));
        if (i < s.size())
            u64(littleEndianWord(bytes + i, s.size() - i));
    }

    void f64(double d)
    {
        if (d == 0.0)
            d = 0.0; // fold -0.0 into +0.0
        std::uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(d), "double is 64-bit");
        std::memcpy(&bits, &d, sizeof(bits));
        u64(bits);
    }

    /** Bytes [p, p + n), n <= 8, as a little-endian word. */
    static std::uint64_t littleEndianWord(const unsigned char *p,
                                          std::size_t n)
    {
        std::uint64_t w = 0;
        for (std::size_t j = 0; j < n; ++j)
            w |= static_cast<std::uint64_t>(p[j]) << (8 * j);
        return w;
    }
};

/**
 * The canonical encoding of one instruction (see contentHash): kind
 * and classical bit in one word, the two list sizes in one, the
 * qubits (controls, then targets) two to a word, the angle, a
 * Unitary's matrix, both labels and the condition value.
 */
void
hashInstruction(ContentHasher &hash, const Circuit &circ,
                const Instruction &inst)
{
    hash.u32Pair(static_cast<std::uint32_t>(inst.kind), inst.bit);
    hash.u32Pair(static_cast<std::uint32_t>(inst.controls.size()),
                 static_cast<std::uint32_t>(inst.targets.size()));
    bool half = false;
    std::uint32_t low = 0;
    const auto qubit = [&](unsigned q) {
        if (half)
            hash.u32Pair(low, q);
        else
            low = q;
        half = !half;
    };
    for (unsigned c : inst.controls)
        qubit(c);
    for (unsigned t : inst.targets)
        qubit(t);
    if (half)
        hash.u32Pair(low, 0);
    hash.f64(inst.angle);
    // Hash dense matrix contents, not the side-table id: ids are
    // allocation order and differ across equal programs.
    if (inst.kind == GateKind::Unitary && inst.matrixId >= 0) {
        const auto &m = circ.matrix(inst.matrixId);
        hash.u64(m.dim());
        for (std::size_t r = 0; r < m.dim(); ++r)
            for (std::size_t c = 0; c < m.dim(); ++c) {
                hash.f64(m.at(r, c).real());
                hash.f64(m.at(r, c).imag());
            }
    }
    hash.str(inst.label);
    hash.str(inst.condLabel);
    hash.u64(inst.condValue);
}

} // namespace

std::uint64_t Circuit::contentHash() const
{
    ContentHasher hash;
    hash.str("qsa.circuit.v2");
    hash.u64(nQubits);
    hash.u64(regs.size());
    for (const auto &r : regs) {
        hash.str(r.name());
        hash.u64(r.width());
        for (unsigned i = 0; i < r.width(); ++i)
            hash.u64(r.qubit(i));
    }
    hash.u64(insts.size());
    for (const auto &inst : insts)
        hashInstruction(hash, *this, inst);
    return hash.h;
}

std::uint64_t Circuit::chainHash(std::uint64_t chain,
                                 const Instruction &inst) const
{
    ContentHasher hash;
    hash.h = chain;
    hashInstruction(hash, *this, inst);
    return hash.h;
}

} // namespace qsa::circuit
