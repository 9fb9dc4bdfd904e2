/**
 * @file
 * The MetricsRegistry: cycle-aligned performance counters shared by the
 * event-driven simulator (sim::Simulator) and the netlist simulator
 * (rtl::NetlistSim).
 *
 * The paper's central guarantee (Sec. 5) is that the generated simulator
 * and the generated RTL are cycle-exact against each other. This registry
 * extends that guarantee from "same final state" to "same observed
 * behavior every cycle": both backends count the identical quantities —
 * stage executions, wait_until spins, idle cycles, per-FIFO traffic and
 * occupancy, event-counter activity, register-array write traffic — under
 * identical stable string keys, so a snapshot from one engine must be
 * bit-identical to a snapshot from the other. The differential harness in
 * tests/metrics_alignment_test.cc asserts exactly that.
 *
 * Key scheme (all names come from the IR, which enforces uniqueness):
 *   cycles                                  total simulated cycles
 *   total.executions                        stage bodies run, all stages
 *   total.events                            subscriptions issued
 *   stage.<mod>.execs                       body ran (event present, wait ok)
 *   stage.<mod>.wait_spins                  event present, wait_until failed
 *   stage.<mod>.idle_cycles                 no pending event
 *   stage.<mod>.events_in                   subscriptions received
 *   stage.<mod>.event_saturations           increments dropped at the bound
 *   fifo.<mod>.<port>.pushes                committed pushes
 *   fifo.<mod>.<port>.pops                  committed pops
 *   fifo.<mod>.<port>.high_water            max end-of-cycle occupancy
 *   array.<name>.writes                     committed register-array writes
 *   sched.executions                        alias of total.executions, kept
 *                                           beside the other SimStats keys
 *   sched.events_skipped                    stage-visits the wake-list
 *                                           scheduler never paid for (sum of
 *                                           per-stage idle_cycles)
 *   sched.stages_woken                      idle stages woken by a committed
 *                                           event (0 -> >0 pending-counter
 *                                           transitions at a cycle boundary —
 *                                           an architectural quantity, so the
 *                                           netlist backend counts the same
 *                                           transitions from its counter
 *                                           commit and the values align)
 * plus one occupancy histogram per FIFO under fifo.<mod>.<port>.occupancy
 * (bucket i = number of cycles the FIFO ended with exactly i entries).
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace assassyn {

class Module;
class Port;
class RegArray;
class JsonWriter;

namespace sim {

/** A dense value-indexed histogram (e.g. FIFO occupancy per cycle). */
struct Histogram {
    std::vector<uint64_t> buckets; ///< buckets[v] = samples with value v
    uint64_t high_water = 0;       ///< largest value ever recorded
    uint64_t samples = 0;

    void
    record(uint64_t value)
    {
        if (value >= buckets.size())
            buckets.resize(value + 1, 0);
        ++buckets[value];
        if (value > high_water)
            high_water = value;
        ++samples;
    }

    bool operator==(const Histogram &other) const;
    bool operator!=(const Histogram &other) const { return !(*this == other); }
};

/**
 * Cheap point-in-time view of one stage's scheduler counters: the
 * per-cycle inspection surface the time-travel debugger (src/debug/)
 * polls between single-cycle run() slices. Both engines fill it from
 * live state without building a full MetricsRegistry, and with the same
 * committed-boundary semantics as the stage.* registry keys.
 */
struct StageCounters {
    uint64_t execs = 0;
    uint64_t wait_spins = 0;
    uint64_t idle_cycles = 0;
    uint64_t events_in = 0;
    uint64_t backpressure_stalls = 0;
    uint64_t pending = 0; ///< events waiting at the last cycle boundary
};

/** Point-in-time per-FIFO traffic counters (same contract). */
struct FifoTraffic {
    uint64_t pushes = 0;
    uint64_t pops = 0;
    uint64_t drops = 0;
    uint64_t stall_cycles = 0;
};

/**
 * A snapshot of every counter and histogram of one finished (or paused)
 * run. Ordered maps keep iteration — and therefore JSON reports and
 * diffs — deterministic.
 */
class MetricsRegistry {
  public:
    // --- Population --------------------------------------------------------

    void
    set(std::string key, uint64_t value)
    {
        counters_.insert_or_assign(std::move(key), value);
    }

    void
    add(const std::string &key, uint64_t delta = 1)
    {
        counters_[key] += delta;
    }

    Histogram &
    histogram(std::string key)
    {
        return histograms_[std::move(key)];
    }

    // --- Inspection --------------------------------------------------------

    /** Value of a counter; 0 when never registered. */
    uint64_t
    counter(const std::string &key) const
    {
        auto it = counters_.find(key);
        return it == counters_.end() ? 0 : it->second;
    }

    bool has(const std::string &key) const { return counters_.count(key); }

    const Histogram *
    histogramOrNull(const std::string &key) const
    {
        auto it = histograms_.find(key);
        return it == histograms_.end() ? nullptr : &it->second;
    }

    const std::map<std::string, uint64_t> &counters() const
    {
        return counters_;
    }

    const std::map<std::string, Histogram> &histograms() const
    {
        return histograms_;
    }

    // --- Comparison (the differential-test surface) ------------------------

    bool operator==(const MetricsRegistry &other) const;
    bool operator!=(const MetricsRegistry &other) const
    {
        return !(*this == other);
    }

    /**
     * Human-readable description of every divergence from @p other;
     * empty when the snapshots are identical. Used as the assertion
     * message of the alignment harness so a failure names the exact
     * counter that broke cycle alignment.
     */
    std::string diff(const MetricsRegistry &other) const;

    // --- Reporting ---------------------------------------------------------

    /** Write this snapshot as one JSON object into an open writer. */
    void writeJson(JsonWriter &w) const;

    /** The machine-readable run report consumed by bench/. */
    std::string toJson(const std::string &design) const;

  private:
    std::map<std::string, uint64_t> counters_;
    std::map<std::string, Histogram> histograms_;
};

// --- Stable key builders ----------------------------------------------------
// Both backends must build keys through these helpers only; the IR's
// uniqueness guarantees (System::addModule, Module::addPort,
// System::addArray reject duplicate names) make the keys stable.

std::string stageKey(const Module &mod, const char *what);
std::string fifoKey(const Port &port, const char *what);
std::string arrayKey(const RegArray &array, const char *what);

} // namespace sim
} // namespace assassyn
