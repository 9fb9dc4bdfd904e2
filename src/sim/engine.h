/**
 * @file
 * The engine contract (docs/architecture.md, "Engine contract").
 *
 * sim::Simulator (the event-driven engine of paper Sec. 5.1) and
 * rtl::NetlistSim (the Verilator stand-in of Sec. 5.2) derive from
 * Engine as final classes, and every consumer that works on either
 * backend — fault injector, sweep runner, grader, debugger — takes an
 * Engine&. metrics(), snapshot() and restore() are defined once, here:
 * each engine only exports its state as a MachineState and imports one
 * back, and the one codec in engine.cc defines the snapshot sections
 * and every check on them. Engine storage stays per engine.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/ir/system.h"
#include "sim/ckpt.h"
#include "sim/hazard.h"
#include "sim/metrics.h"
#include "support/hooks.h"

namespace assassyn {
namespace sim {

class TraceRecorder;

/**
 * The engine-neutral mutable state of a run at a cycle boundary,
 * indexed by the shared System IR: arrays by RegArray::id, stages by
 * Module::id, FIFOs in IR port order (System module order, then port
 * declaration order). Lazily folded counters appear folded.
 */
struct MachineState {
    uint64_t cycle = 0;
    bool finished = false;
    bool finish_pending = false;
    uint64_t quiet_cycles = 0; ///< watchdog zero-progress window
    bool poked = false;        ///< external write since the last cycle
    uint64_t total_execs = 0;
    uint64_t total_events = 0;
    uint64_t stages_woken = 0;
    /** The watchdog verdict the run ended with; never serialized. */
    std::optional<RunStatus> verdict;

    struct Array {
        /**
         * The payload. exportState() points it at live engine storage,
         * valid until the engine next runs or is poked; restore points
         * it at `decoded`.
         */
        std::span<const uint64_t> data;
        std::vector<uint64_t> decoded;
        uint64_t writes = 0;
    };
    struct Fifo {
        std::vector<uint64_t> entries; ///< head first
        FifoTraffic traffic;
        Histogram occupancy; ///< depth + 1 buckets
    };
    struct Stage {
        StageCounters counters; ///< includes the pending event count
        uint64_t saturations = 0;
    };

    std::vector<Array> arrays;
    std::vector<Fifo> fifos;
    std::vector<Stage> stages;
    std::vector<std::string> logs;
    /** Engine-private sections, named "<kind>.<what>" ("event.rng"). */
    std::vector<SnapshotSection> extra;
};

/** One execution backend of a compiled System. */
class Engine {
  public:
    virtual ~Engine();
    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    const System &system() const { return sys_; }

    /** Snapshot engine label: "event" or "netlist". */
    const char *kind() const { return kind_; }

    /**
     * Run until finish() executes, @p max_cycles elapse, the watchdog
     * detects a hazard, or the simulated design faults. Design faults
     * (FIFO overflow under the Abort policy, assertion failure,
     * event-counter overflow) come back as RunResult::kFault after
     * traces and waveforms are flushed; they do not throw. The hazard
     * report is byte-identical across engines. Converts to uint64_t
     * (cycles simulated by this call) for legacy call sites.
     */
    virtual RunResult run(uint64_t max_cycles) = 0;

    /** True once a finish() instruction committed. */
    virtual bool finished() const = 0;

    /** Cycles simulated so far. */
    virtual uint64_t cycle() const = 0;

    /** Read one element of a register array. */
    virtual uint64_t readArray(const RegArray *array,
                               size_t index) const = 0;

    /**
     * Every element of a register array: the bulk readArray. The span
     * aliases live storage, so it reflects later commits, pokes and
     * restore()s, and stays valid for the engine's lifetime.
     */
    virtual std::span<const uint64_t>
    arrayView(const RegArray *array) const = 0;

    /** Overwrite one element of a register array (testbench poke). */
    virtual void writeArray(const RegArray *array, size_t index,
                            uint64_t value) = 0;

    /** Current number of entries in a port's FIFO. */
    virtual uint64_t fifoOccupancy(const Port *port) const = 0;

    /** Read the FIFO entry @p pos slots behind the head (0 = head). */
    virtual uint64_t readFifo(const Port *port, size_t pos) const = 0;

    /** Overwrite a live FIFO entry (fault injection / testbench poke). */
    virtual void writeFifo(const Port *port, size_t pos,
                           uint64_t value) = 0;

    /** Captured log() lines, in execution order. */
    virtual const std::vector<std::string> &logOutput() const = 0;

    /**
     * Point-in-time scheduler counters for one stage, read from live
     * state without folding a MetricsRegistry: the debugger's
     * per-cycle polling surface (src/debug/).
     */
    virtual StageCounters stageCounters(const Module *mod) const = 0;

    /** Point-in-time traffic counters for one FIFO. */
    virtual FifoTraffic fifoTraffic(const Port *port) const = 0;

    /** Committed write count of one register array. */
    virtual uint64_t arrayWrites(const RegArray *array) const = 0;

    /** Hook fired before each cycle, seeing start-of-cycle state. */
    virtual void addPreCycleHook(CycleHook hook) = 0;

    /** Hook fired after each cycle's commit. */
    virtual void addPostCycleHook(CycleHook hook) = 0;

    /**
     * The timeline recorder (sim/trace.h), or nullptr when timeline
     * tracing is off: for dropped-span accounting and fault routing.
     */
    virtual TraceRecorder *traceRecorder() const = 0;

    /**
     * Every performance counter and occupancy histogram (key scheme in
     * sim/metrics.h); may be taken mid-run or after finish.
     * Bit-identical across engines for the same design and cycle.
     */
    MetricsRegistry metrics() const;

    /**
     * Serialize all mutable run state (sim/ckpt.h, docs/robustness.md)
     * at a cycle boundary, i.e. between run() calls. Sections are
     * byte-identical across engines, apart from the event engine's
     * extra "event.rng". A run that ended with a watchdog verdict is
     * not resumable and fatal()s here.
     */
    Snapshot snapshot() const;

    /**
     * Rewind to @p snap, taken by either engine from the same design.
     * The snapshot is decoded and checked against the design before
     * any state changes; every mismatch is a FatalError. run(n) then
     * continues byte-identically to the uninterrupted run.
     */
    void restore(const Snapshot &snap);

  protected:
    Engine(const System &sys, const char *kind) : sys_(sys), kind_(kind)
    {
    }

    /**
     * Fill @p out with the state at the current cycle boundary. Array
     * data, FIFO entries, logs and extra sections only when
     * @p payloads (metrics() needs just the counters).
     */
    virtual void exportState(MachineState &out, bool payloads) const = 0;

    /**
     * Adopt @p state, already checked against system(), and rebuild
     * every private view derived from it.
     */
    virtual void importState(MachineState &&state) = 0;

  private:
    const System &sys_;
    const char *kind_;
};

} // namespace sim
} // namespace assassyn
