/**
 * @file
 * The Assassyn-generated cycle-accurate simulator (paper Sec. 5.1).
 *
 * The paper's toolchain emits a Rust simulator from the lowered IR; this
 * reproduction instead compiles the lowered IR into a compact register-VM
 * program per stage and drives it with the two-phase engine of Fig. 9:
 *
 *   phase 1 (stage execution): traverse the *ready set* — drivers plus
 *     stages with a pending event — in the topological order of Sec. 4.1;
 *     a ready stage evaluates its wait_until and, when it holds, runs its
 *     body. Register writes, FIFO operations and event subscriptions are
 *     buffered, not applied. Idle stages are never visited: the commit
 *     phase wakes a stage into the ready set exactly when a Subscribe to
 *     it commits, and retires it when its event counter drains, with
 *     idle_cycles/occupancy metrics reconstructed exactly from the
 *     wake/retire boundaries (tests/scheduler_test.cc).
 *   phase 2 (commit): buffered side effects commit — FIFO dequeues, then
 *     pushes (power-of-two rings, mask-indexed), register writes
 *     (write-once enforced, Fig. 9 b.2/b.3), and event-counter updates.
 *     Only state touched this cycle is visited.
 *
 * Combinational values exposed for cross-stage reference are maintained
 * by a per-stage "shadow" tape, exactly mirroring the always-on
 * combinational wires of the generated RTL; this is what makes the
 * simulator and the netlist backend cycle-exact against each other. A
 * shadow tape re-evaluates (phase 0, topological order) only when one of
 * its sensitivity inputs — the FIFOs and arrays its cone reads,
 * transitively across cross-stage references (sim/program.h) — changed
 * since its last evaluation; unchanged inputs make re-evaluation a
 * provable no-op.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/ir/system.h"
#include "sim/ckpt.h"
#include "sim/engine.h"
#include "sim/hazard.h"
#include "sim/metrics.h"
#include "sim/program.h"
#include "sim/trace.h"
#include "support/hooks.h"
#include "support/rng.h"

namespace assassyn {
namespace sim {

/** Runtime configuration of a simulation. */
struct SimOptions {
    /**
     * Shuffle stage execution order each cycle (Sec. 5.1 randomization).
     * The shadow pass keeps cross-stage reads well-defined, so results
     * must be invariant; tests assert exactly that.
     */
    bool shuffle = false;
    uint64_t shuffle_seed = 1;

    /** Collect log() output; disable for pure-throughput benchmarks. */
    bool capture_logs = true;

    /** Also echo log() lines to stdout. */
    bool echo_logs = false;

    /**
     * When nonempty, stream a VCD waveform here: register-array elements
     * (arrays up to 64 entries), stage execution strobes, and FIFO
     * occupancies, sampled once per cycle.
     */
    std::string vcd_path;

    /**
     * When nonempty, stream a human-readable event trace here: one line
     * per cycle with activity, naming the stages that executed and the
     * stages spinning on a wait_until. The serialized-trace debugging
     * story of paper Sec. 7 Q5.
     */
    std::string trace_path;

    /**
     * When nonempty, record a structured Chrome-trace / Perfetto
     * timeline here (sim/trace.h, schema assassyn.trace.v1): coalesced
     * per-stage activity spans, FIFO push->pop flows, arbiter grants,
     * fault injections, and watchdog verdicts, byte-identical to the
     * rtl::NetlistSim trace of the same design and seed. Off (empty) by
     * default; see docs/observability.md ("Timeline tracing").
     */
    std::string timeline_path;

    /**
     * Ring bound on retained timeline events when timeline_path is set:
     * the oldest events fall out first, and the drop count surfaces as
     * the trace.dropped_events metric.
     */
    size_t timeline_events = size_t(1) << 20;

    /** Event-counter saturation bound, mirroring the 8-bit RTL counter. */
    uint64_t max_pending_events = 255;

    /**
     * What happens when a stage's pending-event counter would exceed
     * max_pending_events. With false (default), the run aborts — the
     * design is broken and silently dropping events would hide it. With
     * true, the counter saturates exactly like the bounded hardware
     * counter of the RTL backend: excess increments are dropped, each
     * drop is counted under stage.<mod>.event_saturations, and the run
     * continues. The same option on rtl::NetlistSimOptions keeps both
     * backends bit-identical (tests/metrics_alignment_test.cc).
     */
    bool saturate_events = false;

    /**
     * Deadlock/livelock watchdog: after this many consecutive cycles in
     * which no architectural state changed and at least one stage was
     * blocked (retained event, spinning wait, or backpressure stall),
     * run() stops with a wait-for-graph diagnosis instead of burning
     * the rest of max_cycles. The design's logic is deterministic, so a
     * zero-progress cycle with a blocked stage can only repeat forever;
     * external pokes (writeArray / writeFifo from hooks) reset the
     * window. 0 disables the watchdog. See docs/robustness.md.
     */
    uint64_t watchdog_window = 1024;
};

/** Aggregate statistics of a finished run. */
struct SimStats {
    uint64_t cycles = 0;
    uint64_t total_stage_executions = 0;
    uint64_t total_events_subscribed = 0;
    /**
     * Stage-visits the wake-list scheduler skipped: one per cycle per
     * stage with no pending event (the full-scan engine paid for each
     * of these). Event-engine only; zero on the netlist backend, so it
     * lives here rather than in the cross-backend MetricsRegistry.
     */
    uint64_t events_skipped = 0;
    /** Ready-set insertions: idle stages woken by a committed event. */
    uint64_t stages_woken = 0;
};

/**
 * Executes one compiled System: the event-driven sim::Engine. A
 * Simulator is the *run-time* half of the compile/run split
 * (docs/architecture.md): it owns only mutable per-run state — slot
 * store, FIFO/array storage, metrics, RNG, the hazard-watchdog window —
 * and executes an immutable sim::Program. Construct once, then run();
 * the Engine surface (sim/engine.h) documents every accessor.
 */
class Simulator final : public Engine {
  public:
    /** Convenience: compiles a private Program, then runs it. */
    explicit Simulator(const System &sys, SimOptions opts = {});

    /**
     * Construct from a prebuilt compiled artifact. Allocates per-run
     * state only — no IR walking, no Step compilation — so many
     * Simulators (sequential or concurrent, each on its own thread)
     * can share one Program (docs/architecture.md, sweep.h).
     */
    explicit Simulator(std::shared_ptr<const Program> program,
                       SimOptions opts = {});
    ~Simulator() override;

    RunResult run(uint64_t max_cycles) override;
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
    StageCounters stageCounters(const Module *mod) const override;
    FifoTraffic fifoTraffic(const Port *port) const override;
    uint64_t arrayWrites(const RegArray *array) const override;
    void addPreCycleHook(CycleHook hook) override;
    void addPostCycleHook(CycleHook hook) override;
    TraceRecorder *traceRecorder() const override;

    /** Number of times a stage's body executed. */
    uint64_t executions(const Module *mod) const;

    /** Run statistics so far. */
    SimStats stats() const;

    /** The immutable compiled artifact this instance executes. */
    const std::shared_ptr<const Program> &program() const;

  protected:
    void exportState(MachineState &out, bool payloads) const override;

    /**
     * Besides the architectural state: the ready set becomes drivers
     * plus pending stages, idle spans re-anchor at the restore cycle,
     * every shadow cone turns stale, and the shuffle RNG takes the
     * "event.rng" section (keeping its constructor seed when the
     * snapshot came from the netlist engine).
     */
    void importState(MachineState &&state) override;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace sim
} // namespace assassyn
