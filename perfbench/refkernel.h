/**
 * @file
 * The frozen reference kernel the benchmark normalizes host time by.
 *
 * An interpreter over a 16 KiB instruction tape that dispatches each
 * instruction through a table of 256 distinct handlers (indirect calls
 * into ~10 KiB of code) whose operations chase dependent indices through
 * a 16 KiB table, so like the event and netlist engines it is bound by
 * indirect dispatch, branch prediction, instruction fetch and dependent
 * L1 loads. On a shared 4-vCPU KVM guest the per-process rate of this
 * kernel tracked the engines' per-process throughput with correlation
 * 0.97-0.98 and slope 1.1-1.2; dividing by it cut the spread of 10 s
 * runs of the CPU designs from 8.8-9.4% to 2.1-2.7% (standard
 * deviation over 8 processes). The same interpreter over an 8 MiB table
 * did not track them at all (correlation 0.1 over 0.5 s windows): the
 * engines' working sets are small, so neighbours' memory traffic moves
 * the big-table kernel alone. A single-switch L1 loop tracked them but
 * under-reacted (slope 1.6).
 *
 * Frozen means: tape, table, handlers and the check length must never
 * change, because the nominal rate recorded in BENCHMARK.json is
 * meaningful only for this exact instruction stream. selfCheck() pins
 * that with a checksum constant; a mismatch fails the run.
 */
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

namespace detail {

struct KernelState {
    const uint32_t *tape = nullptr;
    const uint64_t *table = nullptr;
    uint32_t pc = 0;
    uint32_t idx = 0;
    uint64_t acc = 1;
};

inline constexpr uint32_t kTapeMask = (1u << 12) - 1;  ///< 16 KiB of u32
inline constexpr uint32_t kTableMask = (1u << 11) - 1; ///< 16 KiB of u64

/** Handler @p I: one of four operation kinds, with its own constants. */
template <unsigned I>
[[gnu::noinline]] void
kernelOp(KernelState &s, uint32_t ins)
{
    constexpr uint64_t c1 = (I + 1) * 0x9e3779b97f4a7c15ull;
    constexpr uint64_t c2 = (I * 7 + 3) * 0xbf58476d1ce4e5b9ull;
    constexpr unsigned r = I % 61 + 1;
    if constexpr (I % 4 == 0) { // dependent load: next index from memory
        s.idx = uint32_t(s.table[s.idx] ^ ins ^ c1) & kTableMask;
        s.acc += s.idx * c2;
    } else if constexpr (I % 4 == 1) {
        uint64_t a = s.acc ^ c1;
        s.acc = ((a << r) | (a >> (64 - r))) + ins;
    } else if constexpr (I % 4 == 2) { // data-dependent forward jump
        if ((s.acc ^ c2) & (1ull << (I % 64)))
            s.pc = (s.pc + (ins >> 24)) & kTapeMask;
        s.acc += c1;
    } else { // load addressed by the accumulator
        s.acc ^= s.table[((s.acc + c2) >> 51) & kTableMask] * c1 + ins;
    }
}

using KernelFn = void (*)(KernelState &, uint32_t);

template <size_t... I>
constexpr std::array<KernelFn, sizeof...(I)>
kernelOps(std::index_sequence<I...>)
{
    return {&kernelOp<I>...};
}

inline constexpr auto kKernelOps = kernelOps(std::make_index_sequence<256>{});

} // namespace detail

class RefKernel {
  public:
    /** Steps of the canonical self-check run from the initial state. */
    static constexpr uint64_t kCheckSteps = 1u << 22;
    /** acc after kCheckSteps from the initial state. */
    static constexpr uint64_t kCheckSum = 0xc009fcc202806d17ull;

    RefKernel() { reset(); }
    RefKernel(const RefKernel &) = delete;
    RefKernel &operator=(const RefKernel &) = delete;

    /** Re-create the initial tape, table and register state. */
    void
    reset()
    {
        uint64_t x = 0x5eedf00dcafe1234ull;
        auto mix = [&x] {
            x += 0x9e3779b97f4a7c15ull;
            uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            return z ^ (z >> 31);
        };
        tape_.resize(detail::kTapeMask + 1);
        for (uint32_t &w : tape_)
            w = uint32_t(mix());
        table_.resize(detail::kTableMask + 1);
        for (uint64_t &w : table_)
            w = mix();
        s_ = {};
        s_.tape = tape_.data();
        s_.table = table_.data();
    }

    /** Interpret @p steps tape instructions; returns the accumulator. */
    uint64_t
    run(uint64_t steps)
    {
        detail::KernelState s = s_;
        for (uint64_t n = 0; n < steps; ++n) {
            uint32_t ins = s.tape[s.pc];
            s.pc = (s.pc + 1) & detail::kTapeMask;
            detail::kKernelOps[ins & 255](s, ins);
        }
        s_ = s;
        return s.acc;
    }

    /**
     * Run the canonical check from a fresh state and report whether the
     * checksum matches kCheckSum. Leaves the kernel in a fresh state.
     */
    bool
    selfCheck()
    {
        reset();
        bool ok = run(kCheckSteps) == kCheckSum;
        reset();
        return ok;
    }

  private:
    std::vector<uint32_t> tape_;
    std::vector<uint64_t> table_;
    detail::KernelState s_;
};

/**
 * Runs the kernel in short timed slices between the benchmark's timed
 * operations and accumulates the measured rate. Callers hold the
 * kernel's time at a fixed share of the workload's through keepUp(), so
 * the kernel samples the same stretches of host time as the workload.
 */
class RefClock {
  public:
    /**
     * About 1.2 ms per slice at the nominal rate: long enough that one
     * slice's rate is a steady sample and that the workload's caches are
     * disturbed only every few short operations.
     */
    static constexpr uint64_t kSliceSteps = 1u << 16;

    /** Run one slice and add it to the totals. */
    void
    slice()
    {
        auto t0 = std::chrono::steady_clock::now();
        sink_ ^= kernel_.run(kSliceSteps);
        auto t1 = std::chrono::steady_clock::now();
        double s = std::chrono::duration<double>(t1 - t0).count();
        seconds_ += s;
        steps_ += kSliceSteps;
        last_mops_ = double(kSliceSteps) / s / 1e6;
    }

    /** Run slices until the kernel has run for @p seconds in total. */
    void
    keepUp(double seconds)
    {
        while (seconds_ < seconds)
            slice();
    }

    /** Rate of the most recent slice, million steps per second. */
    double lastMops() const { return last_mops_; }

    /** Measured kernel rate since clear(), million steps per second. */
    double
    mops() const
    {
        return seconds_ > 0 ? double(steps_) / seconds_ / 1e6 : 0.0;
    }

    void
    clear()
    {
        seconds_ = 0;
        steps_ = 0;
    }

    RefKernel &kernel() { return kernel_; }
    uint64_t sink() const { return sink_; }

  private:
    RefKernel kernel_;
    double seconds_ = 0;
    uint64_t steps_ = 0;
    double last_mops_ = 0;
    uint64_t sink_ = 0;
};

} // namespace perfbench
