/**
 * @file
 * The RTL-level cycle simulator: this repo's stand-in for Verilator.
 *
 * Unlike the event-driven simulator (src/sim), which lowers each stage
 * to a fused bytecode tape, this simulator evaluates every one of the
 * elaborated netlist's cells, then commits every sequential block — the
 * cost structure of an RTL simulator. The netlist is levelized and
 * lowered to a pre-decoded cell tape once at elaboration
 * (Netlist::tape()), so each cycle is exactly one pass over that tape
 * (no settle loop), with per-stage activity gating skipping cones whose
 * inputs are unchanged (docs/performance.md). The paper's Q5 speedup
 * (2.2-8.1x) comes from the backends' remaining cost difference, and its
 * Q5 alignment claim is validated by running one design through both
 * engines and comparing cycle counts, committed state, and log output
 * byte for byte.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "rtl/netlist.h"
#include "sim/ckpt.h"
#include "sim/engine.h"
#include "sim/hazard.h"
#include "sim/metrics.h"
#include "sim/trace.h"
#include "support/hooks.h"

namespace assassyn {
namespace rtl {

/**
 * Runtime configuration of a netlist-level simulation. Each field
 * means the same as its sim::SimOptions namesake; set both alike and
 * the two backends stay bit-identical.
 */
struct NetlistSimOptions {
    /** Collect $display output; disable for throughput benchmarks. */
    bool capture_logs = true;
    /** The generated RTL's 8-bit event counter bound. */
    uint64_t max_pending_events = 255;
    bool saturate_events = false;
    uint64_t watchdog_window = 1024;
    std::string timeline_path;
    size_t timeline_events = size_t(1) << 20;
};

/**
 * Work counters of one NetlistSim object, mirroring sim::SimStats.
 * They count what this object evaluated: a restore neither rewinds nor
 * rewrites them, and they are not part of metrics() or snapshots (the
 * event engine has no cones). Exact, so they repeat bit for bit on a
 * rerun.
 */
struct NetlistStats {
    uint64_t cycles = 0;          ///< cycles stepped by this object
    uint64_t cones_evaluated = 0; ///< cone ranges evaluated
    uint64_t cones_skipped = 0;   ///< cone ranges skipped by gating
    uint64_t cells_evaluated = 0; ///< tape steps executed
};

/**
 * Executes an elaborated Netlist cycle by cycle: the netlist-level
 * sim::Engine. The Engine surface (sim/engine.h) documents every
 * accessor; values are identical to sim::Simulator's at every cycle.
 */
class NetlistSim final : public sim::Engine {
  public:
    explicit NetlistSim(const Netlist &nl, NetlistSimOptions opts);
    explicit NetlistSim(const Netlist &nl, bool capture_logs = true);
    ~NetlistSim() override;

    /**
     * A netlist with a residual combinational cycle
     * (Netlist::levelized() false) returns kFault immediately, carrying
     * the diagnostic that names the offending cells.
     */
    sim::RunResult run(uint64_t max_cycles) override;
    bool finished() const override;
    uint64_t cycle() const override;
    uint64_t readArray(const RegArray *array, size_t index) const override;
    std::span<const uint64_t> arrayView(const RegArray *array) const override;
    void writeArray(const RegArray *array, size_t index,
                    uint64_t value) override;
    uint64_t fifoOccupancy(const Port *port) const override;
    uint64_t readFifo(const Port *port, size_t pos) const override;
    void writeFifo(const Port *port, size_t pos, uint64_t value) override;
    const std::vector<std::string> &logOutput() const override;
    sim::StageCounters stageCounters(const Module *mod) const override;
    sim::FifoTraffic fifoTraffic(const Port *port) const override;
    uint64_t arrayWrites(const RegArray *array) const override;
    void addPreCycleHook(CycleHook hook) override;
    void addPostCycleHook(CycleHook hook) override;
    sim::TraceRecorder *traceRecorder() const override;

    /** Current value of a net (post the last evaluated cycle). */
    uint64_t netValue(uint32_t net) const;

    /** Work counters of this object's runs so far. */
    NetlistStats stats() const;

  protected:
    /**
     * Nets are not exported: step() re-derives every state-driven net
     * from sequential state at the top of each cycle, so the
     * sequential state alone reconstructs the machine.
     */
    void exportState(sim::MachineState &out, bool payloads) const override;

    /**
     * Besides the sequential state: nets are zeroed, constants
     * re-applied, and every activity-gating cone invalidated, so the
     * first resumed cycle re-evaluates everything.
     */
    void importState(sim::MachineState &&state) override;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace rtl
} // namespace assassyn
