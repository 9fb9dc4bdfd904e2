#include "sim/simulator.h"

#include <algorithm>
#include <optional>
#include <sstream>

#include "sim/vcd.h"
#include "support/bits.h"
#include "support/logging.h"
#include "support/ops.h"

namespace assassyn {
namespace sim {

namespace {

// Per-run mutable state. Everything compile-time — the fused step tape,
// dense index tables, schedules, sensitivity metadata — lives in the
// shared immutable sim::Program (sim/program.h); these structs are the
// residue a new Simulator has to allocate, which is why construction
// from a prebuilt Program is cheap and thread-safe. FIFO rings and
// register arrays live in two shared arenas (one contiguous uint64_t
// block each); the structs below hold base offsets into them.

struct FifoState {
    const Port *port = nullptr;
    FifoPolicy policy = FifoPolicy::kAbort;
    uint32_t base = 0;  ///< offset into the FIFO arena
    uint32_t mask = 0;  ///< pow2 ring mask (cap - 1)
    uint32_t depth = 0; ///< architectural capacity (overflow bound)
    uint32_t head = 0;
    uint32_t count = 0;
    bool push_pending = false;
    bool deq_pending = false;
    uint64_t push_val = 0;
    const Module *push_src = nullptr; ///< producer of the pending push

    // Observability (sim/metrics.h): committed traffic and end-of-cycle
    // occupancy distribution. The histogram is folded lazily: cycles in
    // [sampled_until, done) all sampled the current stable count, so
    // untouched FIFOs record no per-cycle work.
    uint64_t pushes = 0;
    uint64_t pops = 0;
    uint64_t drops = 0;        ///< pushes discarded under kDropNewest
    uint64_t stall_cycles = 0; ///< producer-stall cycles charged to this FIFO
    Histogram occupancy;
    uint64_t sampled_until = 0; ///< cycles already folded into `occupancy`
};

struct ArrState {
    const RegArray *array = nullptr;
    uint32_t base = 0; ///< offset into the array arena
    uint32_t size = 0;
    bool write_pending = false;
    uint64_t widx = 0;
    uint64_t wval = 0;
    uint64_t writes = 0; ///< committed write traffic
};

struct ModState {
    const Module *mod = nullptr;
    bool driver = false;
    bool in_ready = false;
    bool dec = false;
    bool strobe = false;     ///< executed (valid when visit == stamp)
    bool waited = false;     ///< had an event but the wait_until failed
    bool bp_stalled = false; ///< gated by a full stall-policy FIFO
    uint32_t topo_pos = 0;
    uint64_t visit = 0; ///< stamp (cycle+1) of the last phase-1 visit
    uint64_t pending = 0;
    uint64_t inc = 0;
    uint64_t idle_anchor = 0; ///< first un-accounted idle cycle
    uint64_t execs = 0;
    uint64_t wait_spins = 0;  ///< cycles spent spinning on wait_until
    uint64_t idle_cycles = 0; ///< folded idle cycles (see foldedIdle)
    uint64_t events_in = 0;   ///< subscriptions received (committed)
    uint64_t saturations = 0; ///< event increments dropped at the bound
    uint64_t bp_stalls = 0;   ///< cycles gated by backpressure
};

/** buckets[value] += n, exactly as n calls to Histogram::record. */
void
recordN(Histogram &h, uint64_t value, uint64_t n)
{
    if (!n)
        return;
    if (value >= h.buckets.size())
        h.buckets.resize(value + 1, 0);
    h.buckets[value] += n;
    if (value > h.high_water)
        h.high_water = value;
    h.samples += n;
}

} // namespace

struct Simulator::Impl {
    std::shared_ptr<const Program> prog;
    const System &sys;
    SimOptions opts;

    std::vector<uint64_t> slots;
    std::vector<uint64_t> fifo_arena; ///< all FIFO rings, contiguous
    std::vector<uint64_t> arr_arena;  ///< all array payloads, contiguous
    std::vector<FifoState> fifos;
    std::vector<ArrState> arrays;
    std::vector<ModState> mods; ///< indexed by Module::id

    // Wake-list scheduler state: the ready set (drivers plus stages
    // with pending events), kept sorted by topological position so
    // phase-1 visit order — and with it log order, fatal-error order
    // and the serialized event trace — matches the full-scan engine
    // exactly. Shadow staleness flags drive the lazy phase 0.
    std::vector<uint32_t> ready_;
    std::vector<uint8_t> shadow_stale;
    // Touched sets as bitmaps: effects set a bit (no branch, no
    // allocation), commit scans set bits lowest-first — index order is
    // exactly the sorted order the full-scan engine committed in, so
    // the former push_back + sort pair disappears entirely.
    std::vector<uint64_t> touched_fifo_w;
    std::vector<uint64_t> touched_arr_w;
    std::vector<uint64_t> touched_mod_w;
    uint64_t visit_stamp = 0; ///< cycle+1 of the running/last stepCycle
    uint64_t sched_woken = 0; ///< ready-set insertions (SimStats)

    uint64_t cycle = 0;
    uint64_t done = 0; ///< fully committed cycles (== cycle between steps)
    bool finished = false;
    bool finish_pending = false;

    // Hazard watchdog (sim/hazard.h): the zero-progress window state.
    // The analysis itself is compile-time and shared (Program). `poked`
    // records external state writes (testbench / fault-injection
    // hooks), which reset the window.
    uint64_t quiet_cycles = 0;
    bool poked = false;
    bool hazard_flag = false;
    RunStatus hazard_status = RunStatus::kMaxCycles;
    HazardReport hazard;

    std::vector<uint32_t> shuffle_scratch;
    std::unique_ptr<PathLease> vcd_lease;
    std::unique_ptr<VcdWriter> vcd;
    std::vector<std::vector<size_t>> vcd_arrays;
    std::vector<size_t> vcd_execs;
    std::vector<size_t> vcd_fifos;
    std::unique_ptr<OutputFile> trace_file;
    std::unique_ptr<TraceRecorder> recorder;
    uint64_t total_execs = 0;
    uint64_t total_subs = 0;
    std::vector<std::string> logs;
    HookList pre_hooks;
    HookList post_hooks;
    Rng rng;

    explicit Impl(std::shared_ptr<const Program> p, SimOptions o)
        : prog(std::move(p)), sys(prog->sys()), opts(o),
          rng(o.shuffle_seed)
    {
        build();
    }

    // ----------------------------------------------------------------------
    // Construction: allocate per-run state. The compiled artifact (the
    // fused tape, index tables, schedule, sensitivity lists) comes
    // prebuilt from the Program — no IR walking happens here
    // (tests/program_test.cc pins this by counting compile invocations).
    // ----------------------------------------------------------------------

    void
    build()
    {
        slots = prog->slotInit();
        for (const auto &arr : sys.arrays()) {
            ArrState a;
            a.array = arr.get();
            a.base = uint32_t(arr_arena.size());
            const std::vector<uint64_t> &init = arr->init();
            a.size = uint32_t(init.size());
            arr_arena.insert(arr_arena.end(), init.begin(), init.end());
            arrays.push_back(a);
        }
        fifos.reserve(prog->fifos().size());
        for (const FifoSpec &spec : prog->fifos()) {
            FifoState f;
            f.port = spec.port;
            f.policy = spec.policy;
            f.base = uint32_t(fifo_arena.size());
            f.mask = spec.mask;
            f.depth = spec.depth;
            fifo_arena.resize(fifo_arena.size() + spec.cap, 0);
            f.occupancy.buckets.assign(spec.depth + 1, 0);
            fifos.push_back(std::move(f));
        }
        mods.resize(sys.modules().size());
        for (const auto &mod : sys.modules()) {
            ModState &ms = mods[mod->id()];
            ms.mod = mod.get();
            ms.driver = mod->isDriver();
            ms.topo_pos = prog->topoPos()[mod->id()];
        }
        for (uint32_t mid : prog->topoIdx())
            if (mods[mid].driver) {
                mods[mid].in_ready = true;
                ready_.push_back(mid);
            }
        shadow_stale.assign(mods.size(), 1);
        touched_fifo_w.assign((fifos.size() + 63) / 64, 0);
        touched_arr_w.assign((arrays.size() + 63) / 64, 0);
        touched_mod_w.assign((mods.size() + 63) / 64, 0);
        if (!opts.vcd_path.empty())
            buildVcd();
        // Both per-run output files go through the locked OutputFile
        // writer: construction fails fast — before any cycle runs —
        // when two concurrent instances (a runSweep misconfiguration)
        // were handed the same path.
        if (!opts.trace_path.empty())
            trace_file = std::make_unique<OutputFile>(opts.trace_path);
        if (!opts.timeline_path.empty())
            recorder = std::make_unique<TraceRecorder>(
                sys, opts.timeline_path, opts.timeline_events);
    }

    ~Impl()
    {
        if (recorder)
            recorder->finish(cycle);
    }

    void
    buildVcd()
    {
        // VcdWriter owns its FILE; the lease alone provides the
        // process-wide collision check for the path.
        vcd_lease = std::make_unique<PathLease>(opts.vcd_path);
        vcd = std::make_unique<VcdWriter>(opts.vcd_path);
        for (const ArrState &arr : arrays) {
            std::vector<size_t> ids;
            if (!arr.array->isMemory() && arr.array->size() <= 64) {
                for (size_t i = 0; i < arr.size; ++i) {
                    std::string name = arr.array->name();
                    if (arr.array->size() > 1)
                        name += "_" + std::to_string(i);
                    ids.push_back(vcd->addSignal(
                        name, arr.array->elemType().bits()));
                }
            }
            vcd_arrays.push_back(std::move(ids));
        }
        for (const ModState &ms : mods)
            vcd_execs.push_back(
                vcd->addSignal(ms.mod->name() + "__exec", 1));
        for (const FifoState &f : fifos)
            vcd_fifos.push_back(vcd->addSignal(
                f.port->owner()->name() + "__" + f.port->name() +
                    "__count",
                log2ceil(uint64_t(f.depth) + 1)));
        vcd->writeHeader(sys.name());
    }

    // Flag views: strobe/waited/bp_stalled are written only for stages
    // the scheduler visited, so readers gate on the visit stamp instead
    // of relying on a full-scan per-cycle clear.
    bool strobeNow(const ModState &ms) const
    {
        return ms.visit == visit_stamp && ms.strobe;
    }
    bool waitedNow(const ModState &ms) const
    {
        return ms.visit == visit_stamp && ms.waited;
    }
    bool bpNow(const ModState &ms) const
    {
        return ms.visit == visit_stamp && ms.bp_stalled;
    }

    void
    sampleVcd()
    {
        vcd->beginCycle(cycle);
        for (size_t a = 0; a < arrays.size(); ++a)
            for (size_t i = 0; i < vcd_arrays[a].size(); ++i)
                vcd->set(vcd_arrays[a][i], arr_arena[arrays[a].base + i]);
        for (size_t m = 0; m < mods.size(); ++m)
            vcd->set(vcd_execs[m], strobeNow(mods[m]));
        for (size_t f = 0; f < fifos.size(); ++f)
            vcd->set(vcd_fifos[f], fifos[f].count);
        vcd->flush();
    }

    uint32_t
    fifoIndex(const Port *p) const
    {
        return prog->fifoIndex(p);
    }

    // ----------------------------------------------------------------------
    // Sensitivity and scheduling primitives
    // ----------------------------------------------------------------------

    void
    markFifoDirty(uint32_t fid)
    {
        for (uint32_t mid : prog->fifoWake()[fid])
            shadow_stale[mid] = 1;
    }

    void
    markArrayDirty(uint32_t aid)
    {
        for (uint32_t mid : prog->arrayWake()[aid])
            shadow_stale[mid] = 1;
    }

    void
    touchFifo(uint32_t fid)
    {
        touched_fifo_w[fid >> 6] |= 1ull << (fid & 63);
    }

    void
    touchArray(uint32_t aid)
    {
        touched_arr_w[aid >> 6] |= 1ull << (aid & 63);
    }

    void
    touchMod(uint32_t mid)
    {
        touched_mod_w[mid >> 6] |= 1ull << (mid & 63);
    }

    /** Wake @p mid into the ready set, keeping topological order. */
    void
    readyInsert(uint32_t mid)
    {
        ModState &ms = mods[mid];
        ms.in_ready = true;
        ++sched_woken;
        auto it = std::lower_bound(
            ready_.begin(), ready_.end(), ms.topo_pos,
            [this](uint32_t m, uint32_t pos) {
                return mods[m].topo_pos < pos;
            });
        ready_.insert(it, mid);
    }

    /** Idle cycles including the open span since the stage went idle. */
    uint64_t
    foldedIdle(const ModState &ms) const
    {
        if (ms.in_ready)
            return ms.idle_cycles;
        return ms.idle_cycles + (done - ms.idle_anchor);
    }

    /** Occupancy histogram including the open constant-count span. */
    Histogram
    foldedOccupancy(const FifoState &f) const
    {
        Histogram h = f.occupancy;
        recordN(h, f.count, done - f.sampled_until);
        return h;
    }

    // ----------------------------------------------------------------------
    // Execution
    // ----------------------------------------------------------------------

    /** @return false when a wait_until check failed (event retained). */
    bool
    runTape(uint32_t begin, uint32_t end)
    {
        const DStep *const tape = prog->tape().data();
        uint64_t *const sl = slots.data();
        FifoState *const fst = fifos.data();
        ArrState *const ast = arrays.data();
        ModState *const mst = mods.data();
        const uint64_t *const fa = fifo_arena.data();
        const uint64_t *const aa = arr_arena.data();
        const DStep *s = tape + begin;
        const DStep *const e = tape + end;
#if defined(__GNUC__) || defined(__clang__)
        // Threaded dispatch (computed goto): every handler ends in its
        // own indirect jump to the next step's handler, so the branch
        // predictor learns per-opcode successor patterns that a single
        // shared switch branch cannot express. The table is indexed by
        // DOp and must list every opcode in declaration order.
        static const void *const kJump[] = {
            &&op_kAnd, &&op_kOr, &&op_kXor, &&op_kAdd, &&op_kSub,
            &&op_kMul, &&op_kShl, &&op_kShrU, &&op_kShrS, &&op_kEq,
            &&op_kNe, &&op_kLtU, &&op_kLeU, &&op_kGtU, &&op_kGeU,
            &&op_kLtS, &&op_kLeS, &&op_kGtS, &&op_kGeS, &&op_kNot,
            &&op_kNeg, &&op_kRedOr, &&op_kRedAnd, &&op_kSlice,
            &&op_kConcat, &&op_kSelect, &&op_kMask, &&op_kSExt,
            &&op_kAndImm, &&op_kOrImm, &&op_kXorImm, &&op_kAddImm,
            &&op_kSubImm, &&op_kMulImm, &&op_kShlImm, &&op_kShrUImm,
            &&op_kShrSImm, &&op_kEqImm, &&op_kNeImm, &&op_kLtUImm,
            &&op_kLeUImm, &&op_kGtUImm, &&op_kGeUImm, &&op_kLtSImm,
            &&op_kLeSImm, &&op_kGtSImm, &&op_kGeSImm, &&op_kSelT,
            &&op_kSelF, &&op_kSel2, &&op_kConcatImm, &&op_kArrayReadImm,
            &&op_kEqImmSel, &&op_kEqImmSelT, &&op_kEqImmSelF,
            &&op_kEqImmSel2, &&op_kEqImmSel3, &&op_kAndAnd, &&op_kAndOr,
            &&op_kOrAnd, &&op_kOrOr, &&op_kEqAnd, &&op_kNeAnd,
            &&op_kNeImmAnd, &&op_kValidAnd, &&op_kAndSel, &&op_kConcat3,
            &&op_kSliceConcat, &&op_kConcatSlice, &&op_kSelSel,
            &&op_kValid2, &&op_kValid2And, &&op_kEqAndSel,
            &&op_kEqAndAnd, &&op_kOr5, &&op_kArrayReadImmAdd,
            &&op_kBinGeneric, &&op_kFifoValid, &&op_kFifoPeek,
            &&op_kArrayRead, &&op_kWaitCheck, &&op_kWaitCheckAnd,
            &&op_kWaitCheckValidAnd,
            &&op_kSkipIfFalse, &&op_kSkipIfNeImm, &&op_kSkipIfEqImm,
            &&op_kDequeue, &&op_kPush, &&op_kPushCat, &&op_kArrayWrite,
            &&op_kArrayRmw, &&op_kSubscribe, &&op_kLog, &&op_kAssertEff,
            &&op_kFinishEff,
        };
#define ASSASSYN_OP(name) op_##name
#define ASSASSYN_NEXT()                                                  \
    do {                                                                 \
        if (++s == e)                                                    \
            return true;                                                 \
        goto *kJump[s->op];                                              \
    } while (0)
        if (s == e)
            return true;
        goto *kJump[s->op];
#else
        // Portable fallback: the same handler bodies under a switch.
#define ASSASSYN_OP(name) case DOp::name
#define ASSASSYN_NEXT() break
        for (; s != e; ++s) {
            switch (static_cast<DOp>(s->op)) {
#endif

        ASSASSYN_OP(kAnd):
            sl[s->dest] = (sl[s->a] & sl[s->b]) & s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kOr):
            sl[s->dest] = (sl[s->a] | sl[s->b]) & s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kXor):
            sl[s->dest] = (sl[s->a] ^ sl[s->b]) & s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kAdd):
            sl[s->dest] = (sl[s->a] + sl[s->b]) & s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kSub):
            sl[s->dest] = (sl[s->a] - sl[s->b]) & s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kMul):
            sl[s->dest] = (sl[s->a] * sl[s->b]) & s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kShl): {
            uint64_t sh = sl[s->b];
            sl[s->dest] = (sh >= 64 ? 0 : sl[s->a] << sh) & s->u.mask;
            ASSASSYN_NEXT();
        }
        ASSASSYN_OP(kShrU): {
            uint64_t sh = sl[s->b];
            sl[s->dest] = (sh >= 64 ? 0 : sl[s->a] >> sh) & s->u.mask;
            ASSASSYN_NEXT();
        }
        ASSASSYN_OP(kShrS): {
            int64_t sa = int64_t(sl[s->a] << s->x8) >> s->x8;
            uint64_t sh = sl[s->b];
            sl[s->dest] =
                uint64_t(sh >= 64 ? (sa < 0 ? -1 : 0) : sa >> sh) &
                s->u.mask;
            ASSASSYN_NEXT();
        }
        ASSASSYN_OP(kEq):
            sl[s->dest] = sl[s->a] == sl[s->b];
            ASSASSYN_NEXT();
        ASSASSYN_OP(kNe):
            sl[s->dest] = sl[s->a] != sl[s->b];
            ASSASSYN_NEXT();
        ASSASSYN_OP(kLtU):
            sl[s->dest] = sl[s->a] < sl[s->b];
            ASSASSYN_NEXT();
        ASSASSYN_OP(kLeU):
            sl[s->dest] = sl[s->a] <= sl[s->b];
            ASSASSYN_NEXT();
        ASSASSYN_OP(kGtU):
            sl[s->dest] = sl[s->a] > sl[s->b];
            ASSASSYN_NEXT();
        ASSASSYN_OP(kGeU):
            sl[s->dest] = sl[s->a] >= sl[s->b];
            ASSASSYN_NEXT();
        ASSASSYN_OP(kLtS):
            sl[s->dest] = (int64_t(sl[s->a] << s->x8) >> s->x8) <
                          (int64_t(sl[s->b] << s->x8) >> s->x8);
            ASSASSYN_NEXT();
        ASSASSYN_OP(kLeS):
            sl[s->dest] = (int64_t(sl[s->a] << s->x8) >> s->x8) <=
                          (int64_t(sl[s->b] << s->x8) >> s->x8);
            ASSASSYN_NEXT();
        ASSASSYN_OP(kGtS):
            sl[s->dest] = (int64_t(sl[s->a] << s->x8) >> s->x8) >
                          (int64_t(sl[s->b] << s->x8) >> s->x8);
            ASSASSYN_NEXT();
        ASSASSYN_OP(kGeS):
            sl[s->dest] = (int64_t(sl[s->a] << s->x8) >> s->x8) >=
                          (int64_t(sl[s->b] << s->x8) >> s->x8);
            ASSASSYN_NEXT();
        ASSASSYN_OP(kNot):
            sl[s->dest] = ~sl[s->a] & s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kNeg):
            sl[s->dest] = (~sl[s->a] + 1) & s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kRedOr):
            sl[s->dest] = sl[s->a] != 0;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kRedAnd):
            sl[s->dest] = sl[s->a] == s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kSlice):
            sl[s->dest] = (sl[s->a] >> s->x8) & s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kConcat):
            sl[s->dest] = ((sl[s->a] << s->x8) | sl[s->b]) & s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kSelect):
            sl[s->dest] = sl[s->a] ? sl[s->b] : sl[s->u.ca.c];
            ASSASSYN_NEXT();
        ASSASSYN_OP(kMask):
            sl[s->dest] = sl[s->a] & s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kSExt):
            sl[s->dest] =
                uint64_t(int64_t(sl[s->a] << s->x8) >> s->x8) &
                s->u.mask;
            ASSASSYN_NEXT();

        // Immediate-fused forms: one slot load, the constant operand
        // rides in the step (pre-masked/sign-extended by the compiler
        // as each evaluator needs).
        ASSASSYN_OP(kAndImm):
            sl[s->dest] = sl[s->a] & s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kOrImm):
            sl[s->dest] = sl[s->a] | s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kXorImm):
            sl[s->dest] = sl[s->a] ^ s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kAddImm):
            sl[s->dest] = (sl[s->a] + s->u.mask) & (~0ull >> s->x8);
            ASSASSYN_NEXT();
        ASSASSYN_OP(kSubImm):
            sl[s->dest] = (sl[s->a] - s->u.mask) & (~0ull >> s->x8);
            ASSASSYN_NEXT();
        ASSASSYN_OP(kMulImm):
            sl[s->dest] = (sl[s->a] * s->u.mask) & (~0ull >> s->x8);
            ASSASSYN_NEXT();
        ASSASSYN_OP(kShlImm):
            sl[s->dest] = (sl[s->a] << s->x8) & s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kShrUImm):
            sl[s->dest] = (sl[s->a] >> s->x8) & s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kShrSImm):
            sl[s->dest] =
                uint64_t((int64_t(sl[s->a] << s->x8) >> s->x8) >>
                         s->x16) &
                s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kEqImm):
            sl[s->dest] = sl[s->a] == s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kNeImm):
            sl[s->dest] = sl[s->a] != s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kLtUImm):
            sl[s->dest] = sl[s->a] < s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kLeUImm):
            sl[s->dest] = sl[s->a] <= s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kGtUImm):
            sl[s->dest] = sl[s->a] > s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kGeUImm):
            sl[s->dest] = sl[s->a] >= s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kLtSImm):
            sl[s->dest] = (int64_t(sl[s->a] << s->x8) >> s->x8) <
                          int64_t(s->u.mask);
            ASSASSYN_NEXT();
        ASSASSYN_OP(kLeSImm):
            sl[s->dest] = (int64_t(sl[s->a] << s->x8) >> s->x8) <=
                          int64_t(s->u.mask);
            ASSASSYN_NEXT();
        ASSASSYN_OP(kGtSImm):
            sl[s->dest] = (int64_t(sl[s->a] << s->x8) >> s->x8) >
                          int64_t(s->u.mask);
            ASSASSYN_NEXT();
        ASSASSYN_OP(kGeSImm):
            sl[s->dest] = (int64_t(sl[s->a] << s->x8) >> s->x8) >=
                          int64_t(s->u.mask);
            ASSASSYN_NEXT();
        ASSASSYN_OP(kSelT):
            sl[s->dest] = sl[s->a] ? s->u.mask : sl[s->b];
            ASSASSYN_NEXT();
        ASSASSYN_OP(kSelF):
            sl[s->dest] = sl[s->a] ? sl[s->b] : s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kSel2):
            sl[s->dest] = sl[s->a] ? s->u.ca.c : s->u.ca.aux;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kConcatImm):
            sl[s->dest] = (sl[s->a] << s->x8) | s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kArrayReadImm):
            sl[s->dest] = aa[ast[s->b].base + s->a];
            ASSASSYN_NEXT();

        // Superinstructions (compare-select pairs, see fuseTape).
        ASSASSYN_OP(kEqImmSel):
            sl[s->dest] = sl[s->a] == s->u.ca.aux ? sl[s->b] : sl[s->x16];
            ASSASSYN_NEXT();
        ASSASSYN_OP(kEqImmSelT):
            sl[s->dest] = sl[s->a] == s->u.ca.aux ? s->u.ca.c : sl[s->b];
            ASSASSYN_NEXT();
        ASSASSYN_OP(kEqImmSelF):
            sl[s->dest] = sl[s->a] == s->u.ca.aux ? sl[s->b] : s->u.ca.c;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kEqImmSel2):
            sl[s->dest] = sl[s->a] == s->x16 ? s->u.ca.c : s->u.ca.aux;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kEqImmSel3): {
            const uint64_t scrut = sl[s->a];
            sl[s->dest] = scrut == s->x8      ? sl[s->b]
                          : scrut == s->x16   ? sl[s->u.ca.c]
                                              : sl[s->u.ca.aux];
            ASSASSYN_NEXT();
        }

        // Three-operand superinstructions (predicate trees and bit
        // reassembly, see fuseTape).
        ASSASSYN_OP(kAndAnd):
            sl[s->dest] = (sl[s->a] & sl[s->b] & sl[s->x16]) & s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kAndOr):
            sl[s->dest] = ((sl[s->a] & sl[s->b]) | sl[s->x16]) & s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kOrAnd):
            sl[s->dest] = ((sl[s->a] | sl[s->b]) & sl[s->x16]) & s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kOrOr):
            sl[s->dest] = (sl[s->a] | sl[s->b] | sl[s->x16]) & s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kEqAnd):
            sl[s->dest] = uint64_t(sl[s->a] == sl[s->b]) & sl[s->x16];
            ASSASSYN_NEXT();
        ASSASSYN_OP(kNeAnd):
            sl[s->dest] = uint64_t(sl[s->a] != sl[s->b]) & sl[s->x16];
            ASSASSYN_NEXT();
        ASSASSYN_OP(kNeImmAnd):
            sl[s->dest] = uint64_t(sl[s->a] != s->u.ca.aux) & sl[s->b];
            ASSASSYN_NEXT();
        ASSASSYN_OP(kValidAnd):
            sl[s->dest] = uint64_t(fst[s->a].count > 0) & sl[s->b];
            ASSASSYN_NEXT();
        ASSASSYN_OP(kAndSel):
            sl[s->dest] = (sl[s->a] & sl[s->b] & s->u.ca.aux)
                              ? sl[s->x16]
                              : sl[s->u.ca.c];
            ASSASSYN_NEXT();
        ASSASSYN_OP(kConcat3):
            sl[s->dest] = ((sl[s->a] << s->x8) |
                           (sl[s->b] << s->u.ca.aux) | sl[s->x16]) &
                          s->u.ca.c;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kSliceConcat):
            sl[s->dest] = ((((sl[s->a] >> s->x8) & s->u.ca.c) << s->x16) |
                           sl[s->b]) &
                          s->u.ca.aux;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kConcatSlice):
            sl[s->dest] = ((sl[s->a] << s->x8) |
                           ((sl[s->b] >> s->x16) & s->u.ca.c)) &
                          s->u.ca.aux;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kSelSel):
            sl[s->dest] = sl[s->a] ? sl[s->b]
                          : sl[s->x16] ? sl[s->u.ca.c]
                                       : sl[s->u.ca.aux];
            ASSASSYN_NEXT();
        ASSASSYN_OP(kValid2):
            sl[s->dest] = uint64_t(fst[s->a].count > 0) &
                          uint64_t(fst[s->x16].count > 0);
            ASSASSYN_NEXT();
        ASSASSYN_OP(kValid2And):
            sl[s->dest] = uint64_t(fst[s->a].count > 0) &
                          uint64_t(fst[s->x16].count > 0) & sl[s->b];
            ASSASSYN_NEXT();
        ASSASSYN_OP(kEqAndSel):
            sl[s->dest] = (uint64_t(sl[s->a] == sl[s->b]) & sl[s->x16])
                              ? sl[s->u.ca.c]
                              : sl[s->u.ca.aux];
            ASSASSYN_NEXT();
        ASSASSYN_OP(kEqAndAnd):
            sl[s->dest] = uint64_t(sl[s->a] == sl[s->b]) &
                          sl[s->u.ca.c] & sl[s->u.ca.aux];
            ASSASSYN_NEXT();
        ASSASSYN_OP(kOr5):
            sl[s->dest] = (sl[s->a] | sl[s->b] | sl[s->x16] |
                           sl[s->u.ca.c] | sl[s->u.ca.aux]) &
                          (~0ull >> s->x8);
            ASSASSYN_NEXT();
        ASSASSYN_OP(kArrayReadImmAdd):
            sl[s->dest] = (aa[ast[s->b].base + s->a] + s->u.mask) &
                          (~0ull >> s->x8);
            ASSASSYN_NEXT();

        ASSASSYN_OP(kBinGeneric):
            sl[s->dest] = ops::evalBin(
                static_cast<BinOpcode>(s->x8), sl[s->a], sl[s->b],
                s->u.ca.c, s->x16 != 0, s->u.ca.aux);
            ASSASSYN_NEXT();
        ASSASSYN_OP(kFifoValid):
            sl[s->dest] = fst[s->a].count > 0;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kFifoPeek): {
            const FifoState &f = fst[s->a];
            sl[s->dest] = f.count ? fa[f.base + f.head] : 0;
            ASSASSYN_NEXT();
        }
        ASSASSYN_OP(kArrayRead): {
            const ArrState &arr = ast[s->b];
            uint64_t idx = sl[s->a];
            sl[s->dest] = idx < arr.size ? aa[arr.base + idx] : 0;
            ASSASSYN_NEXT();
        }
        ASSASSYN_OP(kWaitCheck):
            if (!sl[s->a])
                return false;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kWaitCheckAnd):
            if (!(sl[s->a] & sl[s->b] & s->u.mask))
                return false;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kWaitCheckValidAnd):
            if (!(uint64_t(fst[s->a].count > 0) & sl[s->b]))
                return false;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kSkipIfFalse):
            if (!sl[s->a])
                s += s->b;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kSkipIfNeImm):
            if (sl[s->a] != s->u.mask)
                s += s->b;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kSkipIfEqImm):
            if (sl[s->a] == s->u.mask)
                s += s->b;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kDequeue):
            fst[s->a].deq_pending = true;
            touchFifo(s->a);
            ASSASSYN_NEXT();
        ASSASSYN_OP(kPush): {
            FifoState &f = fst[s->b];
            if (f.push_pending)
                fatal("cycle ", cycle, ": multiple pushes to FIFO '",
                      f.port->fullName(), "' in one cycle");
            f.push_pending = true;
            f.push_val = sl[s->a] & s->u.mask;
            f.push_src = mst[s->x16].mod;
            touchFifo(s->b);
            ASSASSYN_NEXT();
        }
        ASSASSYN_OP(kPushCat): {
            FifoState &f = fst[s->b];
            if (f.push_pending)
                fatal("cycle ", cycle, ": multiple pushes to FIFO '",
                      f.port->fullName(), "' in one cycle");
            f.push_pending = true;
            f.push_val =
                ((sl[s->a] << s->x8) | sl[s->dest]) & s->u.mask;
            f.push_src = mst[s->x16].mod;
            touchFifo(s->b);
            ASSASSYN_NEXT();
        }
        ASSASSYN_OP(kArrayWrite): {
            ArrState &arr = ast[s->x16];
            uint64_t idx = sl[s->a];
            if (idx >= arr.size)
                fatal("cycle ", cycle, ": out-of-range write to '",
                      arr.array->name(), "[", idx, "]'");
            // The to_write bookkeeping of Fig. 9 b.2: one write
            // per register array per cycle.
            if (arr.write_pending)
                fatal("cycle ", cycle, ": register array '",
                      arr.array->name(), "' written twice in one cycle");
            arr.write_pending = true;
            arr.widx = idx;
            arr.wval = sl[s->b] & s->u.mask;
            touchArray(s->x16);
            ASSASSYN_NEXT();
        }
        ASSASSYN_OP(kArrayRmw): {
            ArrState &arr = ast[s->x16];
            uint64_t idx = sl[s->a];
            if (idx >= arr.size)
                fatal("cycle ", cycle, ": out-of-range write to '",
                      arr.array->name(), "[", idx, "]'");
            if (arr.write_pending)
                fatal("cycle ", cycle, ": register array '",
                      arr.array->name(), "' written twice in one cycle");
            arr.write_pending = true;
            arr.widx = idx;
            // Reads see start-of-cycle contents (commits land in phase
            // 2), so the fused read matches the standalone step.
            arr.wval = (aa[ast[s->b].base + s->dest] + s->u.mask) &
                       (~0ull >> s->x8);
            touchArray(s->x16);
            ASSASSYN_NEXT();
        }
        ASSASSYN_OP(kSubscribe):
            mst[s->a].inc += 1;
            ++total_subs;
            touchMod(s->a);
            ASSASSYN_NEXT();
        ASSASSYN_OP(kLog):
            if (opts.capture_logs || opts.echo_logs)
                emitLog(prog->logs()[s->a]);
            ASSASSYN_NEXT();
        ASSASSYN_OP(kAssertEff):
            if (!sl[s->a])
                fatal("cycle ", cycle, ": assertion failed: ",
                      prog->asserts()[s->b]->msg());
            ASSASSYN_NEXT();
        ASSASSYN_OP(kFinishEff):
            finish_pending = true;
            ASSASSYN_NEXT();

#if !(defined(__GNUC__) || defined(__clang__))
            }
        }
#endif
#undef ASSASSYN_OP
#undef ASSASSYN_NEXT
        return true;
    }

    void
    emitLog(const LogSpec &spec)
    {
        std::ostringstream os;
        const std::string &fmt = spec.inst->fmt();
        size_t arg = 0;
        for (size_t i = 0; i < fmt.size(); ++i) {
            if (i + 1 < fmt.size() && fmt[i] == '{' && fmt[i + 1] == '}') {
                const LogArg &la = spec.args[arg++];
                uint64_t raw = slots[la.slot];
                if (la.sgn)
                    os << signExtend(raw, la.bits);
                else
                    os << raw;
                ++i;
            } else {
                os << fmt[i];
            }
        }
        if (opts.echo_logs)
            std::fprintf(stdout, "%s\n", os.str().c_str());
        if (opts.capture_logs)
            logs.push_back(os.str());
    }

    void
    stepCycle()
    {
        if (recorder)
            recorder->beginCycle(cycle);
        pre_hooks.fire(cycle);

        // Phase 0: re-evaluate stale shadow cones only, in topological
        // order. A shadow whose sensitivity inputs (FIFOs, arrays,
        // upstream shadow cones) are unchanged still holds exactly the
        // values an eager evaluation would produce.
        for (uint32_t mid : prog->shadowMods()) {
            if (!shadow_stale[mid])
                continue;
            shadow_stale[mid] = 0;
            const StageSpan &sp = prog->spans()[mid];
            runTape(sp.shadow_begin, sp.shadow_end);
        }

        // Phase 1: execute the ready set (drivers plus stages with a
        // pending event). Membership only changes at commit, so the
        // visit set is start-of-cycle exact; idle stages cost nothing.
        const uint64_t stamp = cycle + 1;
        visit_stamp = stamp;
        const std::vector<uint32_t> *order = &ready_;
        if (opts.shuffle) {
            // Sec. 5.1 randomization, now over the ready set: the
            // shadow pass keeps cross-stage reads well-defined, so
            // results must be invariant (tests assert exactly that).
            shuffle_scratch = ready_;
            rng.shuffle(shuffle_scratch);
            order = &shuffle_scratch;
        }
        for (uint32_t mid : *order) {
            ModState &ms = mods[mid];
            ms.visit = stamp;
            ms.strobe = false;
            ms.waited = false;
            ms.bp_stalled = false;
            // Backpressure gate: a stage pushing into a full
            // kStallProducer FIFO does not execute this cycle. The gate
            // reads start-of-cycle occupancy (counts only change at
            // commit), so it is independent of stage order — shuffle
            // invariance holds — and matches the RTL's
            // `exec = pending & wait & ~full` gating exactly.
            bool full_stall = false;
            for (uint32_t fid : prog->stallFifos()[mid]) {
                FifoState &f = fifos[fid];
                if (f.count == f.depth) {
                    full_stall = true;
                    ++f.stall_cycles;
                }
            }
            if (full_stall) {
                ms.bp_stalled = true;
                ms.waited = true;
                ++ms.bp_stalls;
                ++ms.wait_spins;
                continue;
            }
            const StageSpan &sp = prog->spans()[mid];
            if (runTape(sp.active_begin, sp.active_end)) {
                ++ms.execs;
                ++total_execs;
                ms.strobe = true;
                if (!ms.driver) {
                    ms.dec = true;
                    touchMod(mid);
                }
            } else {
                ms.waited = true;
                ++ms.wait_spins;
            }
        }

        // Phase 2: commit buffered side effects — touched state only.
        // `progress` records any committed architectural state change
        // this cycle — the watchdog's definition of forward progress.
        // Bitmap scans visit set bits lowest-index-first, so commit
        // order (and any fatal raised from it) matches the full-scan
        // engine's dense-index iteration exactly.
        bool progress = false;
        for (size_t w = 0; w < touched_fifo_w.size(); ++w) {
          for (uint64_t bits = touched_fifo_w[w]; bits; bits &= bits - 1) {
            uint32_t fid = uint32_t(w * 64) +
                           uint32_t(__builtin_ctzll(bits));
            FifoState &f = fifos[fid];
            // Fold the constant-count span ending this cycle before
            // mutating, then sample the new end-of-cycle occupancy —
            // the same instant the RTL backend samples, so histograms
            // align bit-for-bit.
            recordN(f.occupancy, f.count, cycle - f.sampled_until);
            bool changed = false;
            if (f.deq_pending && f.count) {
                f.head = (f.head + 1) & f.mask;
                --f.count;
                ++f.pops;
                if (recorder)
                    recorder->pop(f.port);
                changed = true;
                progress = true;
            }
            f.deq_pending = false;
            if (f.push_pending) {
                if (f.count == f.depth) {
                    if (f.policy == FifoPolicy::kDropNewest) {
                        ++f.drops;
                    } else {
                        // kAbort (and the defensively unreachable
                        // kStallProducer case: its gate keeps producers
                        // from pushing while full).
                        fatal("cycle ", cycle, ": FIFO overflow on '",
                              f.port->fullName(), "' (occupancy ",
                              f.count, "/", f.depth,
                              "; push from stage '",
                              f.push_src ? f.push_src->name() : "?",
                              "'); tune fifo_depth or set a "
                              "backpressure policy");
                    }
                } else {
                    fifo_arena[f.base + ((f.head + f.count) & f.mask)] =
                        f.push_val;
                    ++f.count;
                    ++f.pushes;
                    if (recorder)
                        recorder->push(f.port, f.push_src);
                    changed = true;
                    progress = true;
                }
                f.push_pending = false;
            }
            f.occupancy.record(f.count);
            f.sampled_until = cycle + 1;
            if (changed)
                markFifoDirty(fid);
          }
          touched_fifo_w[w] = 0;
        }
        for (size_t w = 0; w < touched_arr_w.size(); ++w) {
          for (uint64_t bits = touched_arr_w[w]; bits; bits &= bits - 1) {
            uint32_t aid = uint32_t(w * 64) +
                           uint32_t(__builtin_ctzll(bits));
            ArrState &arr = arrays[aid];
            arr_arena[arr.base + arr.widx] = arr.wval;
            arr.write_pending = false;
            ++arr.writes;
            progress = true;
            markArrayDirty(aid);
          }
          touched_arr_w[w] = 0;
        }
        bool any_went_idle = false;
        for (size_t w = 0; w < touched_mod_w.size(); ++w) {
          for (uint64_t bits = touched_mod_w[w]; bits; bits &= bits - 1) {
            uint32_t mid = uint32_t(w * 64) +
                           uint32_t(__builtin_ctzll(bits));
            ModState &ms = mods[mid];
            ms.events_in += ms.inc;
            if (ms.inc)
                progress = true;
            if (!ms.driver && strobeNow(ms))
                progress = true;
            uint64_t next = ms.pending - (ms.dec ? 1 : 0) + ms.inc;
            if (next > opts.max_pending_events) {
                if (!opts.saturate_events)
                    fatal("cycle ", cycle,
                          ": event counter overflow on stage '",
                          ms.mod->name(), "' (", next,
                          " pending events > bound ",
                          opts.max_pending_events,
                          "); enable saturate_events or throttle callers");
                // Saturating bounded counter, as the RTL implements it:
                // excess increments are dropped, and each drop counted.
                ms.saturations += next - opts.max_pending_events;
                next = opts.max_pending_events;
            }
            ms.pending = next;
            ms.dec = false;
            ms.inc = 0;
            if (!ms.in_ready && ms.pending > 0) {
                // Wake: close the idle span (cycles idle_anchor..now,
                // this cycle included — the stage was not visited in
                // phase 1) and enter the ready set.
                ms.idle_cycles += (cycle + 1) - ms.idle_anchor;
                readyInsert(mid);
            } else if (ms.in_ready && !ms.driver && ms.pending == 0) {
                any_went_idle = true;
            }
          }
          touched_mod_w[w] = 0;
        }
        if (any_went_idle) {
            // Retire drained stages; idle accounting restarts next
            // cycle (this cycle they executed, so it is not idle).
            ready_.erase(
                std::remove_if(
                    ready_.begin(), ready_.end(),
                    [&](uint32_t mid) {
                        ModState &ms = mods[mid];
                        if (!ms.driver && ms.pending == 0) {
                            ms.in_ready = false;
                            ms.idle_anchor = cycle + 1;
                            return true;
                        }
                        return false;
                    }),
                ready_.end());
        }
        if (recorder) {
            // The same four-way classification the netlist backend
            // derives from its settled exec_valid nets, so the
            // coalesced activity spans align event for event. Tracing
            // observes every stage (idle spans included), so this is
            // the one observer that pays for a full scan.
            for (ModState &ms : mods) {
                StageActivity act =
                    strobeNow(ms)   ? StageActivity::kExec
                    : bpNow(ms)     ? StageActivity::kBackpressure
                    : waitedNow(ms) ? StageActivity::kWaitSpin
                                    : StageActivity::kIdle;
                recorder->stageActivity(ms.mod, act);
                if (strobeNow(ms) && ms.mod->isGenerated())
                    recorder->grant(ms.mod);
            }
        }
        done = cycle + 1;
        if (vcd)
            sampleVcd();
        if (trace_file)
            writeTrace();
        post_hooks.fire(cycle);
        checkWatchdog(progress);
        if (recorder)
            recorder->endCycle();
        ++cycle;
        if (finish_pending)
            finished = true;
    }

    /**
     * The zero-progress watchdog. A cycle with no committed state
     * change and at least one blocked stage can only repeat forever:
     * the design's logic is deterministic, so identical state implies
     * an identical next cycle. External pokes (writeArray/writeFifo
     * from hooks) reset the window, keeping the always-on default safe
     * for interactive testbenches. Stages outside the ready set have
     * no pending event by construction, so scanning the ready set is
     * exactly the old full blocked-stage scan.
     */
    void
    checkWatchdog(bool progress)
    {
        if (!opts.watchdog_window || hazard_flag)
            return;
        if (poked) {
            progress = true;
            poked = false;
        }
        bool blocked = false;
        for (uint32_t mid : ready_) {
            const ModState &ms = mods[mid];
            blocked |= bpNow(ms) || (!ms.driver && ms.pending > 0 &&
                                     !strobeNow(ms));
        }
        if (progress || !blocked) {
            quiet_cycles = 0;
            return;
        }
        if (++quiet_cycles < opts.watchdog_window)
            return;
        hazard = prog->analyzer().analyze(
            cycle, quiet_cycles,
            [&](const Module *m) { return strobeNow(mods[m->id()]); },
            [&](const Module *m) { return mods[m->id()].pending; },
            [&](const Port *p) {
                return uint64_t(fifos[fifoIndex(p)].count);
            });
        hazard_status = hazard.kind == "livelock" ? RunStatus::kLivelock
                                                  : RunStatus::kDeadlock;
        hazard_flag = true;
        if (recorder)
            recorder->hazard(hazard);
        if (trace_file) {
            trace_file->write(hazard.toString());
            trace_file->flush();
        }
    }

    /** Flush post-mortem artifacts after a design fault (satellite 2). */
    void
    flushOnFault(const std::string &message)
    {
        if (trace_file) {
            trace_file->printf("#%llu: FAULT: %s\n",
                               (unsigned long long)cycle,
                               message.c_str());
            trace_file->flush();
        }
        // The faulting cycle never reached its sample point; capture the
        // state as-is so the waveform ends at the failure.
        if (vcd)
            sampleVcd();
        // Best-effort post-mortem timeline: close every open interval
        // at the faulting cycle and write the file now, so the trace
        // survives even if the Simulator object is kept alive.
        if (recorder)
            recorder->finish(cycle);
    }

    /**
     * Why a spinning stage failed its wait_until this cycle. An explicit
     * wait_until is the developer's own guard; an implicit one was
     * synthesized by the compiler from the validity of the FIFO
     * arguments the body consumes, so spinning there means an input
     * FIFO is still empty.
     */
    static const char *
    stallReason(const Module &mod)
    {
        return mod.hasExplicitWait() ? "wait_until" : "fifo_empty";
    }

    /** One event-trace line per cycle with any activity. */
    void
    writeTrace()
    {
        bool any = false;
        for (const ModState &ms : mods)
            any |= strobeNow(ms) || waitedNow(ms);
        if (!any)
            return;
        // One composed line = one locked write: concurrent instances
        // can never interleave mid-line even if misconfigured to share
        // a stream.
        std::string line = "#" + std::to_string(cycle) + ":";
        for (uint32_t mid : prog->topoIdx()) {
            const ModState &ms = mods[mid];
            if (strobeNow(ms)) {
                line += " " + ms.mod->name();
            } else if (waitedNow(ms)) {
                line += " " + ms.mod->name() + "(wait:" +
                        (ms.bp_stalled ? "fifo_full"
                                       : stallReason(*ms.mod)) +
                        ")";
            }
        }
        line += "\n";
        trace_file->write(line);
        trace_file->flush();
    }
};

Simulator::Simulator(const System &sys, SimOptions opts)
    : Engine(sys, "event"),
      impl_(std::make_unique<Impl>(Program::compile(sys), opts))
{}

Simulator::Simulator(std::shared_ptr<const Program> program, SimOptions opts)
    : Engine(program->sys(), "event"),
      impl_(std::make_unique<Impl>(std::move(program), opts))
{}

Simulator::~Simulator() = default;

RunResult
Simulator::run(uint64_t max_cycles)
{
    Impl &im = *impl_;
    uint64_t start = im.cycle;
    RunResult res;
    try {
        while (!im.finished && !im.hazard_flag &&
               im.cycle - start < max_cycles)
            im.stepCycle();
    } catch (const FatalError &err) {
        // A simulated-design fault: flush post-mortem artifacts and
        // report it structurally. Toolchain bugs (InternalError) still
        // propagate — they are our fault, not the design's.
        im.flushOnFault(err.what());
        res.status = RunStatus::kFault;
        res.error = err.what();
        res.cycles = im.cycle - start;
        return res;
    }
    res.cycles = im.cycle - start;
    if (im.finished) {
        res.status = RunStatus::kFinished;
    } else if (im.hazard_flag) {
        res.status = im.hazard_status;
        res.hazard = im.hazard;
    } else {
        res.status = RunStatus::kMaxCycles;
        // Best-effort diagnosis of who was blocked when the budget ran
        // out; `kind` is advisory here (status stays kMaxCycles).
        res.hazard = im.prog->analyzer().analyze(
            im.cycle, im.quiet_cycles,
            [&](const Module *m) {
                return im.strobeNow(im.mods[m->id()]);
            },
            [&](const Module *m) { return im.mods[m->id()].pending; },
            [&](const Port *p) {
                return uint64_t(im.fifos[im.fifoIndex(p)].count);
            });
        res.hazard.kind.clear();
    }
    return res;
}

bool Simulator::finished() const { return impl_->finished; }
uint64_t Simulator::cycle() const { return impl_->cycle; }

uint64_t
Simulator::readArray(const RegArray *array, size_t index) const
{
    const ArrState &arr = impl_->arrays.at(array->id());
    if (index >= arr.size)
        fatal("readArray: index ", index, " out of range for '",
              array->name(), "'");
    return impl_->arr_arena[arr.base + index];
}

std::span<const uint64_t>
Simulator::arrayView(const RegArray *array) const
{
    const ArrState &arr = impl_->arrays.at(array->id());
    return {impl_->arr_arena.data() + arr.base, arr.size};
}

void
Simulator::writeArray(const RegArray *array, size_t index, uint64_t value)
{
    ArrState &arr = impl_->arrays.at(array->id());
    if (index >= arr.size)
        fatal("writeArray: index ", index, " out of range for '",
              array->name(), "'");
    impl_->arr_arena[arr.base + index] =
        truncate(value, array->elemType().bits());
    impl_->poked = true; // external state change: reset the watchdog
    impl_->markArrayDirty(array->id());
}

uint64_t
Simulator::fifoOccupancy(const Port *port) const
{
    return impl_->fifos.at(impl_->fifoIndex(port)).count;
}

uint64_t
Simulator::readFifo(const Port *port, size_t pos) const
{
    const FifoState &f = impl_->fifos.at(impl_->fifoIndex(port));
    if (pos >= f.count)
        fatal("readFifo: position ", pos, " out of range for '",
              port->fullName(), "' (occupancy ", f.count, ")");
    return impl_->fifo_arena[f.base + ((f.head + pos) & f.mask)];
}

void
Simulator::writeFifo(const Port *port, size_t pos, uint64_t value)
{
    uint32_t fid = impl_->fifoIndex(port);
    FifoState &f = impl_->fifos.at(fid);
    if (pos >= f.count)
        fatal("writeFifo: position ", pos, " out of range for '",
              port->fullName(), "' (occupancy ", f.count, ")");
    impl_->fifo_arena[f.base + ((f.head + pos) & f.mask)] =
        truncate(value, port->type().bits());
    impl_->poked = true;
    impl_->markFifoDirty(fid);
}

const std::vector<std::string> &
Simulator::logOutput() const
{
    return impl_->logs;
}

uint64_t
Simulator::executions(const Module *mod) const
{
    return impl_->mods.at(mod->id()).execs;
}

StageCounters
Simulator::stageCounters(const Module *mod) const
{
    const ModState &ms = impl_->mods.at(mod->id());
    StageCounters c;
    c.execs = ms.execs;
    c.wait_spins = ms.wait_spins;
    c.idle_cycles = impl_->foldedIdle(ms);
    c.events_in = ms.events_in;
    c.backpressure_stalls = ms.bp_stalls;
    c.pending = ms.pending;
    return c;
}

FifoTraffic
Simulator::fifoTraffic(const Port *port) const
{
    const FifoState &f = impl_->fifos.at(impl_->fifoIndex(port));
    return FifoTraffic{f.pushes, f.pops, f.drops, f.stall_cycles};
}

uint64_t
Simulator::arrayWrites(const RegArray *array) const
{
    return impl_->arrays.at(array->id()).writes;
}

SimStats
Simulator::stats() const
{
    SimStats st;
    st.cycles = impl_->cycle;
    st.total_stage_executions = impl_->total_execs;
    st.total_events_subscribed = impl_->total_subs;
    for (const ModState &ms : impl_->mods)
        st.events_skipped += impl_->foldedIdle(ms);
    st.stages_woken = impl_->sched_woken;
    return st;
}

// ---------------------------------------------------------------------------
// The engine-contract hooks (sim/engine.h). Lazily folded counters
// (idle cycles, occupancy histograms) export in their folded form, so
// the record is indistinguishable from the eager full-scan engine's;
// FIFO entries export head first, because the physical head position
// in the ring is not architectural.
// ---------------------------------------------------------------------------

void
Simulator::exportState(MachineState &out, bool payloads) const
{
    const Impl &im = *impl_;
    out.cycle = im.cycle;
    out.finished = im.finished;
    out.finish_pending = im.finish_pending;
    out.quiet_cycles = im.quiet_cycles;
    out.poked = im.poked;
    out.total_execs = im.total_execs;
    out.total_events = im.total_subs;
    out.stages_woken = im.sched_woken;
    if (im.hazard_flag)
        out.verdict = im.hazard_status;
    out.arrays.resize(im.arrays.size());
    for (size_t i = 0; i < im.arrays.size(); ++i) {
        const ArrState &a = im.arrays[i];
        out.arrays[i].writes = a.writes;
        if (payloads)
            out.arrays[i].data = arrayView(a.array);
    }
    out.fifos.reserve(im.fifos.size());
    for (const auto &mod : im.sys.modules()) {
        for (const auto &port : mod->ports()) {
            const FifoState &f = im.fifos[im.fifoIndex(port.get())];
            MachineState::Fifo &o = out.fifos.emplace_back();
            if (payloads)
                for (uint32_t i = 0; i < f.count; ++i)
                    o.entries.push_back(
                        im.fifo_arena[f.base + ((f.head + i) & f.mask)]);
            o.traffic = FifoTraffic{f.pushes, f.pops, f.drops,
                                    f.stall_cycles};
            o.occupancy = im.foldedOccupancy(f);
        }
    }
    out.stages.resize(im.mods.size());
    for (size_t i = 0; i < im.mods.size(); ++i) {
        out.stages[i].counters = stageCounters(im.mods[i].mod);
        out.stages[i].saturations = im.mods[i].saturations;
    }
    if (payloads) {
        out.logs = im.logs;
        ByteWriter w;
        for (uint64_t word : im.rng.state())
            w.u64(word);
        out.extra.push_back({"event.rng", w.take()});
    }
}

void
Simulator::importState(MachineState &&st)
{
    Impl &im = *impl_;
    // The shuffle RNG rides only event-engine snapshots; restoring a
    // netlist snapshot keeps the constructor seed (documented caveat:
    // a shuffled event run resumed from a netlist snapshot replays the
    // stream from its seed). Parsed first, so a bad section changes
    // nothing.
    std::optional<std::array<uint64_t, 4>> rng;
    for (const SnapshotSection &sec : st.extra) {
        if (sec.name != "event.rng")
            continue;
        ByteReader r(sec.bytes.data(), sec.bytes.size(),
                     "section 'event.rng'");
        rng.emplace();
        for (uint64_t &word : *rng)
            word = r.u64();
        r.expectEnd();
    }
    im.cycle = st.cycle;
    im.done = st.cycle;
    im.finished = st.finished;
    im.finish_pending = st.finish_pending;
    im.quiet_cycles = st.quiet_cycles;
    im.poked = st.poked;
    im.total_execs = st.total_execs;
    im.total_subs = st.total_events;
    im.sched_woken = st.stages_woken;
    for (size_t i = 0; i < im.arrays.size(); ++i) {
        ArrState &a = im.arrays[i];
        std::copy(st.arrays[i].data.begin(), st.arrays[i].data.end(),
                  im.arr_arena.begin() + a.base);
        a.writes = st.arrays[i].writes;
        a.write_pending = false;
    }
    size_t next = 0;
    for (const auto &mod : im.sys.modules()) {
        for (const auto &port : mod->ports()) {
            FifoState &f = im.fifos[im.fifoIndex(port.get())];
            MachineState::Fifo &in = st.fifos[next++];
            std::fill(im.fifo_arena.begin() + f.base,
                      im.fifo_arena.begin() + f.base + f.mask + 1, 0);
            std::copy(in.entries.begin(), in.entries.end(),
                      im.fifo_arena.begin() + f.base);
            f.head = 0;
            f.count = uint32_t(in.entries.size());
            f.pushes = in.traffic.pushes;
            f.pops = in.traffic.pops;
            f.drops = in.traffic.drops;
            f.stall_cycles = in.traffic.stall_cycles;
            f.occupancy = std::move(in.occupancy);
            f.sampled_until = im.cycle;
            f.push_pending = false;
            f.deq_pending = false;
            f.push_src = nullptr;
        }
    }
    for (size_t i = 0; i < im.mods.size(); ++i) {
        ModState &ms = im.mods[i];
        const MachineState::Stage &in = st.stages[i];
        ms.pending = in.counters.pending;
        ms.execs = in.counters.execs;
        ms.wait_spins = in.counters.wait_spins;
        ms.idle_cycles = in.counters.idle_cycles;
        ms.events_in = in.counters.events_in;
        ms.saturations = in.saturations;
        ms.bp_stalls = in.counters.backpressure_stalls;
        ms.inc = 0;
        ms.dec = false;
        ms.strobe = false;
        ms.waited = false;
        ms.bp_stalled = false;
        ms.visit = 0;
    }
    im.logs = std::move(st.logs);
    // Rebuild the scheduler views from the restored architectural
    // state: the ready set is exactly drivers plus pending stages,
    // idle spans re-anchor at the restore cycle (their accumulated
    // prefix is already in idle_cycles), and every shadow cone is
    // stale — the first stepCycle re-derives all combinational state.
    im.ready_.clear();
    for (uint32_t mid : im.prog->topoIdx()) {
        ModState &ms = im.mods[mid];
        ms.in_ready = ms.driver || ms.pending > 0;
        if (ms.in_ready)
            im.ready_.push_back(mid);
        else
            ms.idle_anchor = im.cycle;
    }
    std::fill(im.touched_fifo_w.begin(), im.touched_fifo_w.end(), 0);
    std::fill(im.touched_arr_w.begin(), im.touched_arr_w.end(), 0);
    std::fill(im.touched_mod_w.begin(), im.touched_mod_w.end(), 0);
    std::fill(im.shadow_stale.begin(), im.shadow_stale.end(), 1);
    im.visit_stamp = 0;
    im.slots = im.prog->slotInit();
    im.hazard_flag = false;
    im.hazard_status = RunStatus::kMaxCycles;
    im.hazard = HazardReport{};
    if (rng)
        im.rng.setState(*rng);
}

void
Simulator::addPreCycleHook(CycleHook hook)
{
    impl_->pre_hooks.add(std::move(hook));
}

void
Simulator::addPostCycleHook(CycleHook hook)
{
    impl_->post_hooks.add(std::move(hook));
}

const std::shared_ptr<const Program> &
Simulator::program() const
{
    return impl_->prog;
}

TraceRecorder *
Simulator::traceRecorder() const
{
    return impl_->recorder.get();
}

} // namespace sim
} // namespace assassyn
