/**
 * @file
 * The engine contract's shared half: metrics folding and the one
 * snapshot codec.
 *
 * Each architectural section of assassyn.ckpt.v1 (ckpt.cc frames them)
 * is one function over a Codec, listed in kSections. Encoding writes
 * every field, decoding reads it back into the same MachineState
 * field, so the two directions share one layout by construction; the
 * design checks run in both directions. After the architectural
 * sections come "trace" (TraceRecorder::serialize, only with timeline
 * tracing on) and the engine-private "<kind>.<what>" sections.
 */
#include "sim/engine.h"

#include "sim/trace.h"
#include "support/logging.h"

namespace assassyn {
namespace sim {

namespace {

/** Reads or writes one section's fields, in layout order. */
class Codec {
  public:
    explicit Codec(ByteWriter &w) : w_(&w) {}
    explicit Codec(ByteReader &r) : r_(&r) {}

    void
    u64(uint64_t &v)
    {
        if (w_)
            w_->u64(v);
        else
            v = r_->u64();
    }

    void
    flag(bool &v)
    {
        if (w_)
            w_->u8(v ? 1 : 0);
        else
            v = r_->flag();
    }

    /** One log line, capped at 1 MiB. */
    void
    str(std::string &s)
    {
        if (w_)
            w_->str(s);
        else
            s = r_->str(size_t(1) << 20);
    }

    /** A u32 count: writes @p n, or returns the count read back. */
    uint32_t
    count(size_t n)
    {
        if (!w_)
            return r_->u32();
        w_->u32(uint32_t(n));
        return uint32_t(n);
    }

    /** @p n words (v.size() when writing); callers bound @p n first. */
    void
    words(std::vector<uint64_t> &v, uint32_t n)
    {
        if (w_) {
            w_->words(v.data(), n);
        } else {
            v.resize(n);
            r_->words(v.data(), n);
        }
    }

    /** An array payload of @p n words, decoded into @p a.decoded. */
    void
    payload(MachineState::Array &a, uint32_t n)
    {
        if (w_) {
            w_->words(a.data.data(), n);
        } else {
            words(a.decoded, n);
            a.data = a.decoded;
        }
    }

  private:
    ByteWriter *w_ = nullptr;
    ByteReader *r_ = nullptr;
};

void
metaIo(Codec &c, const System &, MachineState &st)
{
    c.u64(st.cycle);
    c.flag(st.finished);
    c.flag(st.finish_pending);
    c.u64(st.quiet_cycles);
    c.flag(st.poked);
    c.u64(st.total_execs);
    c.u64(st.total_events);
    c.u64(st.stages_woken);
}

void
arraysIo(Codec &c, const System &sys, MachineState &st)
{
    uint32_t count = c.count(sys.arrays().size());
    if (count != sys.arrays().size())
        fatal("checkpoint: section 'arrays' carries ", count,
              " array(s), design '", sys.name(), "' has ",
              sys.arrays().size());
    st.arrays.resize(count);
    for (const auto &arr : sys.arrays()) {
        MachineState::Array &a = st.arrays[arr->id()];
        uint32_t size = c.count(a.data.size());
        if (size != arr->size())
            fatal("checkpoint: array '", arr->name(), "' has ", size,
                  " element(s) in the snapshot, ", arr->size(),
                  " in the design");
        c.payload(a, size);
        c.u64(a.writes);
    }
}

void
fifosIo(Codec &c, const System &sys, MachineState &st)
{
    size_t ports = 0;
    for (const auto &mod : sys.modules())
        ports += mod->ports().size();
    uint32_t count = c.count(ports);
    if (count != ports)
        fatal("checkpoint: section 'fifos' carries ", count,
              " FIFO(s), design '", sys.name(), "' has ", ports);
    st.fifos.resize(count);
    size_t i = 0;
    for (const auto &mod : sys.modules()) {
        for (const auto &port : mod->ports()) {
            MachineState::Fifo &f = st.fifos[i++];
            uint32_t depth = c.count(port->depth());
            if (depth != port->depth())
                fatal("checkpoint: FIFO '", port->fullName(),
                      "' has depth ", depth, " in the snapshot, ",
                      port->depth(), " in the design");
            uint32_t occ = c.count(f.entries.size());
            if (occ > depth)
                fatal("checkpoint: FIFO '", port->fullName(),
                      "' claims occupancy ", occ, " above depth ", depth);
            c.words(f.entries, occ);
            c.u64(f.traffic.pushes);
            c.u64(f.traffic.pops);
            c.u64(f.traffic.drops);
            c.u64(f.traffic.stall_cycles);
            c.u64(f.occupancy.high_water);
            c.u64(f.occupancy.samples);
            uint32_t buckets = c.count(f.occupancy.buckets.size());
            if (buckets != depth + 1)
                fatal("checkpoint: FIFO '", port->fullName(),
                      "' occupancy histogram has ", buckets,
                      " bucket(s), expected ", depth + 1);
            c.words(f.occupancy.buckets, buckets);
        }
    }
}

void
modsIo(Codec &c, const System &sys, MachineState &st)
{
    uint32_t count = c.count(sys.modules().size());
    if (count != sys.modules().size())
        fatal("checkpoint: section 'mods' carries ", count,
              " module(s), design '", sys.name(), "' has ",
              sys.modules().size());
    st.stages.resize(count);
    for (const auto &mod : sys.modules()) {
        MachineState::Stage &s = st.stages[mod->id()];
        c.u64(s.counters.pending);
        // Drivers run every cycle and own no event counter.
        if (mod->isDriver() && s.counters.pending != 0)
            fatal("checkpoint: stage '", mod->name(),
                  "' has no event counter but the snapshot claims ",
                  s.counters.pending, " pending event(s)");
        c.u64(s.counters.execs);
        c.u64(s.counters.wait_spins);
        c.u64(s.counters.idle_cycles);
        c.u64(s.counters.events_in);
        c.u64(s.saturations);
        c.u64(s.counters.backpressure_stalls);
    }
}

void
logsIo(Codec &c, const System &, MachineState &st)
{
    // Decoding appends line by line, so a corrupt count fails on
    // truncation instead of allocating up front.
    uint32_t count = c.count(st.logs.size());
    for (uint32_t i = 0; i < count; ++i) {
        if (i == st.logs.size())
            st.logs.emplace_back();
        c.str(st.logs[i]);
    }
}

struct SectionIo {
    const char *name;
    void (*io)(Codec &, const System &, MachineState &);
};

constexpr SectionIo kSections[] = {
    {"meta", metaIo}, {"arrays", arraysIo}, {"fifos", fifosIo},
    {"mods", modsIo}, {"logs", logsIo},
};

} // namespace

Engine::~Engine() = default;

MetricsRegistry
Engine::metrics() const
{
    MachineState st;
    exportState(st, false);
    MetricsRegistry reg;
    reg.set("cycles", st.cycle);
    reg.set("total.executions", st.total_execs);
    reg.set("total.events", st.total_events);
    uint64_t skipped = 0;
    for (const auto &mod : sys_.modules()) {
        const MachineState::Stage &s = st.stages[mod->id()];
        reg.set(stageKey(*mod, "execs"), s.counters.execs);
        reg.set(stageKey(*mod, "wait_spins"), s.counters.wait_spins);
        reg.set(stageKey(*mod, "idle_cycles"), s.counters.idle_cycles);
        reg.set(stageKey(*mod, "events_in"), s.counters.events_in);
        reg.set(stageKey(*mod, "event_saturations"), s.saturations);
        reg.set(stageKey(*mod, "backpressure_stalls"),
                s.counters.backpressure_stalls);
        skipped += s.counters.idle_cycles;
    }
    // Scheduler health under cross-backend keys: both quantities are
    // architectural (see the key-scheme note in sim/metrics.h).
    reg.set("sched.executions", st.total_execs);
    reg.set("sched.events_skipped", skipped);
    reg.set("sched.stages_woken", st.stages_woken);
    size_t i = 0;
    for (const auto &mod : sys_.modules()) {
        for (const auto &port : mod->ports()) {
            MachineState::Fifo &f = st.fifos[i++];
            reg.set(fifoKey(*port, "pushes"), f.traffic.pushes);
            reg.set(fifoKey(*port, "pops"), f.traffic.pops);
            reg.set(fifoKey(*port, "high_water"), f.occupancy.high_water);
            reg.set(fifoKey(*port, "drops"), f.traffic.drops);
            reg.set(fifoKey(*port, "stall_cycles"), f.traffic.stall_cycles);
            reg.histogram(fifoKey(*port, "occupancy")) =
                std::move(f.occupancy);
        }
    }
    for (const auto &arr : sys_.arrays())
        reg.set(arrayKey(*arr, "writes"), st.arrays[arr->id()].writes);
    // Dropped-span accounting for the timeline ring, only when tracing
    // is on, so untraced runs keep their exact historical snapshots.
    if (const TraceRecorder *rec = traceRecorder()) {
        reg.set("trace.events", rec->eventsRecorded());
        reg.set("trace.dropped_events", rec->eventsDropped());
    }
    return reg;
}

Snapshot
Engine::snapshot() const
{
    MachineState st;
    exportState(st, true);
    if (st.verdict)
        fatal("snapshot: the run of '", sys_.name(),
              "' already ended with a ", runStatusName(*st.verdict),
              " verdict at cycle ", st.cycle,
              "; verdict runs are not resumable");
    Snapshot snap;
    snap.design = sys_.name();
    snap.engine = kind_;
    snap.cycle = st.cycle;
    for (const SectionIo &sec : kSections) {
        ByteWriter w;
        Codec c(w);
        sec.io(c, sys_, st);
        snap.add(sec.name, w.take());
    }
    if (const TraceRecorder *rec = traceRecorder()) {
        ByteWriter w;
        rec->serialize(w);
        snap.add("trace", w.take());
    }
    for (SnapshotSection &sec : st.extra)
        snap.add(sec.name, std::move(sec.bytes));
    return snap;
}

void
Engine::restore(const Snapshot &snap)
{
    if (snap.design != sys_.name())
        fatal("checkpoint: snapshot of design '", snap.design,
              "' cannot restore into a run of '", sys_.name(), "'");
    // Decode and check every architectural section before the engine
    // changes, so a snapshot they reject leaves the target as it was.
    MachineState st;
    for (const SectionIo &sec : kSections) {
        ByteReader r = snap.reader(sec.name);
        Codec c(r);
        sec.io(c, sys_, st);
        r.expectEnd();
    }
    if (st.cycle != snap.cycle)
        fatal("checkpoint: header cycle ", snap.cycle,
              " disagrees with section 'meta' cycle ", st.cycle);
    const std::string own = std::string(kind_) + ".";
    for (const SnapshotSection &sec : snap.sections)
        if (sec.name.rfind(own, 0) == 0)
            st.extra.push_back(sec);
    importState(std::move(st));
    TraceRecorder *rec = traceRecorder();
    if (rec && snap.find("trace")) {
        ByteReader r = snap.reader("trace");
        rec->deserialize(r);
        r.expectEnd();
    }
}

} // namespace sim
} // namespace assassyn
