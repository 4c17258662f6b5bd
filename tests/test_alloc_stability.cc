/**
 * @file
 * Heap-allocation stability of the per-cycle hot path.
 *
 * Overrides the global allocation functions with counting wrappers and
 * asserts that, once warm, neither Pipeline::tick() nor
 * RcNetwork::step() / ThermalModel::step() touches the heap at all.
 * This pins the zero-allocation property the hot-path optimisation
 * establishes (ring-buffer ROB/LSQ, member scratch vectors, insertion-
 * sort fetch arbitration, cached thermal kernels) so a future change
 * that reintroduces per-tick allocation fails loudly rather than
 * showing up as a silent throughput regression.
 *
 * The counting overrides are binary-wide; the counter is atomic because
 * other suites in this binary spawn worker threads. Besides the count
 * they track the largest single request, which the .hsr mutation fuzz
 * (test_disk_store.cc) reads through takeLargestAlloc().
 */

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "isa/assembler.hh"
#include "smt/pipeline.hh"
#include "thermal/floorplan.hh"
#include "thermal/rc_network.hh"
#include "thermal/thermal_model.hh"

namespace {

std::atomic<uint64_t> gAllocs{0};
std::atomic<std::size_t> gLargest{0};

/// Kept out of line: inlined into operator new, it makes gcc 12 flag
/// the free() in operator delete as a mismatched deallocation.
[[gnu::noinline]] void
countAlloc(std::size_t size)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    // A racing larger request may be lost; the one reader runs its
    // allocations on a single thread.
    if (size > gLargest.load(std::memory_order_relaxed))
        gLargest.store(size, std::memory_order_relaxed);
}

} // namespace

/** Largest single allocation since the previous call (binary-wide). */
std::size_t
takeLargestAlloc()
{
    return gLargest.exchange(0, std::memory_order_relaxed);
}

void *
operator new(std::size_t size)
{
    countAlloc(size);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    countAlloc(size);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace hs {
namespace {

uint64_t
allocCount()
{
    return gAllocs.load(std::memory_order_relaxed);
}

/** A non-halting kernel with loads, stores, branches and FP work so the
 *  tick exercises fetch arbitration, the LSQ search, issue and commit —
 *  every stage that used to allocate. */
const char *kLoopKernel = "    addi r2, r0, 4096\n"
                          "    addi r3, r0, 0\n"
                          "loop:\n"
                          "    addi r3, r3, 8\n"
                          "    andi r3, r3, 255\n"
                          "    add r4, r2, r3\n"
                          "    st r3, 0(r4)\n"
                          "    ld r5, 0(r4)\n"
                          "    add r6, r5, r3\n"
                          "    fadd f1, f1, f2\n"
                          "    fmul f3, f1, f2\n"
                          "    bne r6, r0, loop\n"
                          "    jmp loop\n";

TEST(AllocStability, PipelineTickIsAllocationFreeWhenWarm)
{
    Program prog = assemble(kLoopKernel);
    SmtParams params;
    params.numThreads = 2;
    Pipeline pipe(params);
    pipe.setThreadProgram(0, &prog);
    pipe.setThreadProgram(1, &prog);

    // Warm-up: touch every memory page the loop uses, fill the caches
    // and settle the slot pool.
    for (int i = 0; i < 50000; ++i)
        pipe.tick();

    uint64_t before = allocCount();
    for (int i = 0; i < 20000; ++i)
        pipe.tick();
    uint64_t after = allocCount();
    EXPECT_EQ(after - before, 0u)
        << (after - before) << " heap allocations in 20000 warm ticks";
}

TEST(AllocStability, RcNetworkStepIsAllocationFreeWhenWarm)
{
    Rng rng(7);
    int n = 20;
    RcNetwork net(n);
    for (int i = 0; i < n; ++i)
        net.setCapacitance(i, 0.05 + rng.nextDouble());
    for (int i = 0; i + 1 < n; ++i)
        net.addConductance(i, i + 1, 0.5 + rng.nextDouble());
    net.addBathConductance(0, 1.0, 300.0);
    std::vector<Watts> power(static_cast<size_t>(n), 2.0);

    // First step builds the CSR adjacency and the substep cache.
    net.step(power, 0.01);

    uint64_t before = allocCount();
    for (int i = 0; i < 500; ++i)
        net.step(power, 0.01);
    uint64_t after = allocCount();
    EXPECT_EQ(after - before, 0u)
        << (after - before) << " heap allocations in 500 warm steps";
}

TEST(AllocStability, ThermalModelStepIsAllocationFreeWhenWarm)
{
    ThermalModel model(Floorplan::ev6(), ThermalParams{});
    std::vector<Watts> power(static_cast<size_t>(numBlocks), 1.5);

    model.step(power, 1e-5);

    uint64_t before = allocCount();
    for (int i = 0; i < 200; ++i)
        model.step(power, 1e-5);
    uint64_t after = allocCount();
    EXPECT_EQ(after - before, 0u)
        << (after - before) << " heap allocations in 200 warm steps";
}

} // namespace
} // namespace hs
