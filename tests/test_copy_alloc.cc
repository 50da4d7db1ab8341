/**
 * @file
 * Circuit copies allocate O(1) times, not once or more per
 * instruction: every gate's qubit lists fit inline in its
 * Instruction, and each copy helper sizes its instruction vector
 * once. This binary replaces the global operator new to count the
 * allocations of sliceRange, an adjoint appendRange and appendCircuit
 * of a ~500-gate circuit, and of parsing a long QASM angle, and the
 * bytes a parse allocates before it refuses a register past its qubit
 * bound. It is its own test binary because the replacement holds for
 * the whole program.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "circuit/circuit.hh"
#include "circuit/qasm.hh"

namespace
{

std::atomic<std::size_t> gAllocations{0};
std::atomic<std::size_t> gAllocatedBytes{0};

void *
countedAlloc(std::size_t size)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    gAllocatedBytes.fetch_add(size, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

} // anonymous namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace
{

using namespace qsa;
using circuit::Circuit;

/** Allocations `op` makes, run once untimed first (so one-time
 *  set-up such as a thread's metrics slab is not counted). */
template <typename Op>
std::size_t
allocationsOf(Op &&op)
{
    op();
    const std::size_t before = gAllocations.load();
    op();
    return gAllocations.load() - before;
}

/**
 * A unitary program of `layers` x 10 gates on two registers, in the
 * shapes the builders emit: one- and two-qubit gates, Toffolis,
 * doubly-controlled phases and Fredkins (at most 2 controls and 2
 * targets each).
 */
Circuit
gateProgram(unsigned layers)
{
    Circuit c;
    const auto x = c.addRegister("x", 5);
    const auto b = c.addRegister("b", 4);
    for (unsigned l = 0; l < layers; ++l) {
        const unsigned i = l % 5;
        c.h(x[i]);
        c.cnot(x[i], b[l % 4]);
        c.ccnot(x[i], x[(i + 1) % 5], b[(l + 1) % 4]);
        c.cphase(b[l % 4], x[(i + 2) % 5], 0.125 * (l + 1));
        c.ccphase(x[i], b[l % 4], b[(l + 2) % 4], -0.5);
        c.cswap(x[i], b[l % 4], b[(l + 3) % 4]);
        c.rz(b[(l + 1) % 4], 0.25);
        c.t(x[(i + 3) % 5]);
        c.swap(x[i], x[(i + 4) % 5]);
        c.sdg(b[(l + 2) % 4]);
    }
    return c;
}

/** Generous for a handful of vectors and register copies, far below
 *  one allocation per instruction. */
constexpr std::size_t kConstantAllocations = 16;

/** Bytes a rejected QASM parse may allocate: its tables and message,
 *  never the register it refused. */
constexpr std::size_t kConstantBytes = 4096;

TEST(CopyAllocations, SliceRangeAllocatesAConstantNumberOfTimes)
{
    const Circuit program = gateProgram(50);
    ASSERT_EQ(program.size(), 500u);
    EXPECT_LE(allocationsOf([&] {
                  const Circuit slice = program.sliceRange(0, 500);
                  ASSERT_EQ(slice.size(), 500u);
              }),
              kConstantAllocations);
}

TEST(CopyAllocations, AdjointAppendRangeAllocatesAConstantNumberOfTimes)
{
    const Circuit program = gateProgram(50);
    circuit::RangeCopy unwind;
    unwind.adjoint = true;
    EXPECT_LE(allocationsOf([&] {
                  Circuit probe(program.numQubits());
                  probe.appendRange(program, 0, program.size(), unwind);
                  ASSERT_EQ(probe.size(), 500u);
              }),
              kConstantAllocations);
}

TEST(CopyAllocations, AppendCircuitAllocatesAConstantNumberOfTimes)
{
    const Circuit program = gateProgram(50);
    EXPECT_LE(allocationsOf([&] {
                  Circuit twice(program.numQubits());
                  twice.appendCircuit(program);
                  twice.appendCircuit(program);
                  ASSERT_EQ(twice.size(), 1000u);
              }),
              kConstantAllocations);
}

TEST(CopyAllocations, ProbeMarkersAfterASliceDoNotMoveIt)
{
    // A probe copies its suspect prefix, then appends markers: the
    // prefix's vector has room for them.
    const Circuit program = gateProgram(50);
    EXPECT_LE(allocationsOf([&] {
                  Circuit probe = program.sliceRange(0, 300);
                  const std::size_t slice_allocations =
                      gAllocations.load();
                  probe.breakpoint("floor");
                  probe.appendRange(program, 300, 400);
                  probe.breakpoint("probe");
                  EXPECT_EQ(gAllocations.load(), slice_allocations);
              }),
              kConstantAllocations);
}

TEST(ParseAllocations, LongAngleAllocatesAConstantNumberOfTimes)
{
    // After the first, every "+1" term is a factor with a sign, which
    // strtod reads in place. A copy of the rest of the angle per such
    // factor would make a request line of this size cost gigabytes of
    // copying: 100,000 terms, a 300 KB angle.
    std::string angle = "1";
    for (int i = 0; i < 100000; ++i)
        angle += "++1";
    const std::string text = "qreg q[1];\nrz(" + angle + ") q[0];\n";
    EXPECT_LE(allocationsOf([&] {
                  const Circuit parsed = circuit::fromQasm(text);
                  ASSERT_EQ(parsed.size(), 1u);
                  EXPECT_EQ(parsed.instructions()[0].angle, 100001.0);
              }),
              kConstantAllocations);
}

TEST(ParseAllocations, OversizedRegisterIsRejectedBeforeAllocating)
{
    // Under a qubit bound, a declaration past it is rejected before
    // its register is allocated: the parse allocates the same few
    // bytes whatever width the text declares.
    for (const char *width : {"13", "20000000", "4294967295"}) {
        const std::string text =
            "qreg q[" + std::string(width) + "];\nh q[0];\n";
        circuit::fromQasm("qreg q[1];\n", 12); // warm up
        const std::size_t before = gAllocatedBytes.load();
        EXPECT_THROW(circuit::fromQasm(text, 12), circuit::QasmError);
        EXPECT_LE(gAllocatedBytes.load() - before, kConstantBytes)
            << width;
    }
}

} // anonymous namespace
