#include "perfbench/workloads.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "bench/common.h"
#include "debug/session.h"
#include "designs/accel.h"
#include "designs/cpu.h"
#include "designs/ooo.h"
#include "grader/corpus.h"
#include "grader/grader.h"
#include "isa/iss.h"
#include "isa/workloads.h"
#include "rtl/netlist.h"
#include "rtl/netlist_sim.h"
#include "sim/ckpt.h"
#include "sim/program.h"
#include "sim/simulator.h"
#include "support/rng.h"

namespace perfbench {
namespace {

using namespace assassyn;
using Clock = std::chrono::steady_clock;

constexpr uint64_t kMaxCycles = 50'000'000;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

sim::SimOptions
simOpts()
{
    sim::SimOptions o;
    o.capture_logs = false;
    return o;
}

rtl::NetlistSimOptions
rtlOpts()
{
    rtl::NetlistSimOptions o;
    o.capture_logs = false;
    return o;
}

/** Golden check over a design's final memory: "" or the reason. */
using Check = std::function<std::string(const std::vector<uint32_t> &)>;

/** What a design builder hands back. */
struct Built {
    std::unique_ptr<System> sys;
    const RegArray *mem = nullptr;
    const RegArray *retired = nullptr;
};

/** How to build and check one design; inputs are already generated. */
struct Recipe {
    std::string name;
    std::string core;  ///< "inorder", "ooo", "" for an accelerator
    std::string sodor; ///< Sodor program name, for the IPC reference
    std::function<Built()> build;
    Check check;
};

/** A design set up to cycle 0: IR, compiled tape, elaborated netlist. */
struct Design {
    const Recipe *recipe = nullptr;
    Built built;
    std::shared_ptr<const sim::Program> prog;
    std::unique_ptr<rtl::Netlist> nl;
};

/**
 * One design from nothing to both engines ready at cycle 0. Returns the
 * host seconds of the timed calls; the probe engines are destroyed
 * outside the timed region.
 */
double
setUp(const Recipe &r, Design &d, Tracer &t)
{
    d.recipe = &r;
    auto t0 = Clock::now();
    {
        Tracer::Scope s(t, "build", r.name);
        d.built = r.build();
    }
    {
        Tracer::Scope s(t, "program.compile", r.name);
        d.prog = sim::Program::compile(*d.built.sys);
    }
    {
        Tracer::Scope s(t, "netlist.elab", r.name);
        d.nl = std::make_unique<rtl::Netlist>(*d.built.sys);
    }
    std::unique_ptr<sim::Simulator> ev;
    {
        Tracer::Scope s(t, "sim.ctor", r.name);
        ev = std::make_unique<sim::Simulator>(d.prog, simOpts());
    }
    std::unique_ptr<rtl::NetlistSim> ns;
    {
        Tracer::Scope s(t, "rtl.ctor", r.name);
        ns = std::make_unique<rtl::NetlistSim>(*d.nl, rtlOpts());
    }
    return since(t0);
}

double
setUpAll(const std::vector<Recipe> &recipes, std::vector<Design> &designs,
         Tracer &t)
{
    designs.clear();
    designs.resize(recipes.size());
    double s = 0;
    for (size_t i = 0; i < recipes.size(); ++i)
        s += setUp(recipes[i], designs[i], t);
    return s;
}

template <typename E>
std::vector<uint32_t>
readMem(const E &e, const RegArray *mem)
{
    std::vector<uint32_t> m(mem->size());
    for (size_t i = 0; i < m.size(); ++i)
        m[i] = uint32_t(e.readArray(mem, i));
    return m;
}

std::string
runError(const char *engine, const sim::RunResult &r)
{
    std::string e = std::string(engine) + " run did not finish (" +
                    sim::runStatusName(r.status) + ")";
    if (!r.error.empty())
        e += ": " + r.error;
    return e;
}

/**
 * The cpu_sodor / hls_accel operation: run design @p d to completion on
 * both engines, then check that both finished, that their metrics are
 * identical, and that the final memory passes the golden check.
 */
OpResult
runPair(const Design &d, Tracer &t)
{
    const Recipe &r = *d.recipe;
    OpResult out;
    out.cls = out.group = r.name;
    out.core = r.core;
    auto t0 = Clock::now();
    std::unique_ptr<sim::Simulator> ev;
    {
        Tracer::Scope s(t, "sim.ctor", r.name);
        ev = std::make_unique<sim::Simulator>(d.prog, simOpts());
    }
    auto t1 = Clock::now();
    sim::RunResult er;
    {
        Tracer::Scope s(t, "sim.run", r.name);
        er = ev->run(kMaxCycles);
        s.work(er.cycles);
    }
    auto t2 = Clock::now();
    std::unique_ptr<rtl::NetlistSim> ns;
    {
        Tracer::Scope s(t, "rtl.ctor", r.name);
        ns = std::make_unique<rtl::NetlistSim>(*d.nl, rtlOpts());
    }
    auto t3 = Clock::now();
    sim::RunResult nr;
    {
        Tracer::Scope s(t, "rtl.run", r.name);
        nr = ns->run(kMaxCycles);
        s.work(nr.cycles);
    }
    auto t4 = Clock::now();
    auto secs = [](Clock::time_point a, Clock::time_point b) {
        return std::chrono::duration<double>(b - a).count();
    };
    out.seconds = secs(t0, t4);
    out.cycles[kEvent] = ev->cycle();
    out.run_seconds[kEvent] = secs(t1, t2);
    out.cycles[kNetlist] = ns->cycle();
    out.run_seconds[kNetlist] = secs(t3, t4);

    if (!ev->finished())
        out.error = runError("event", er);
    else if (!ns->finished())
        out.error = runError("netlist", nr);
    else if (ev->metrics() != ns->metrics())
        out.error = "event and netlist metrics differ";
    else {
        std::vector<uint32_t> mem = readMem(*ev, d.built.mem);
        if (mem != readMem(*ns, d.built.mem))
            out.error = "event and netlist final memory differ";
        else if (r.check)
            out.error = r.check(mem);
    }
    if (!out.error.empty())
        out.error = r.name + ": " + out.error;
    return out;
}

/**
 * Exact counters of one run of every design on both engines: cycles,
 * scheduler work, tape and netlist sizes, retirements and IPC, plus the
 * same cross-checks as runPair.
 */
void
designCounters(const std::vector<Design> &designs, Counters &c,
               std::string &error)
{
    uint64_t cycles = 0, execs = 0, skipped = 0, woken = 0, tape = 0,
             cells = 0, cones = 0;
    uint64_t ret[2] = {0, 0}, cyc[2] = {0, 0};
    double err_sum = 0;
    size_t err_n = 0;
    Tracer off;
    for (const Design &d : designs) {
        OpResult r = runPair(d, off);
        if (!r.error.empty() && error.empty())
            error = r.error;
        sim::Simulator ev(d.prog, simOpts());
        ev.run(kMaxCycles);
        sim::SimStats st = ev.stats();
        cycles += st.cycles;
        execs += st.total_stage_executions;
        skipped += st.events_skipped;
        woken += st.stages_woken;
        tape += d.prog->tape().size();
        cells += d.nl->cells().size();
        cones += d.nl->cones().size();
        const Recipe &rc = *d.recipe;
        if (!rc.core.empty()) {
            int k = rc.core == "ooo";
            uint64_t retired = ev.readArray(d.built.retired, 0);
            ret[k] += retired;
            cyc[k] += st.cycles;
            if (!k && !rc.sodor.empty())
                for (const auto &ref : bench::kSodorIpc)
                    if (rc.sodor == ref.name) {
                        double ipc = double(retired) / double(st.cycles);
                        err_sum += std::fabs(ipc - ref.ipc) / ref.ipc;
                        ++err_n;
                    }
        }
    }
    auto per = [&](uint64_t n) {
        return cycles ? double(n) / double(cycles) : 0.0;
    };
    c["model.cycles"] = double(cycles);
    c["sim.execs_per_cycle"] = per(execs);
    c["sim.skipped_per_cycle"] = per(skipped);
    c["sim.woken_per_cycle"] = per(woken);
    c["program.tape_steps"] = double(tape);
    c["netlist.cells"] = double(cells);
    c["netlist.cones"] = double(cones);
    c["model.ipc.inorder"] = cyc[0] ? double(ret[0]) / double(cyc[0]) : 0;
    c["model.ipc.ooo"] = cyc[1] ? double(ret[1]) / double(cyc[1]) : 0;
    c["model.ipc_err_vs_sodor"] = err_n ? err_sum / double(err_n) : 0;
}

/** Per-round seeded permutation of [0, n). */
class Order {
  public:
    Order(size_t n, uint64_t seed) : rng_(seed), order_(n)
    {
        for (size_t i = 0; i < n; ++i)
            order_[i] = i;
    }
    size_t
    at(uint64_t i)
    {
        if (i % order_.size() == 0)
            rng_.shuffle(order_);
        return order_[i % order_.size()];
    }

  private:
    Rng rng_;
    std::vector<size_t> order_;
};

Recipe
cpuRecipe(const std::string &prog, bool ooo, std::vector<uint32_t> image,
          Check check)
{
    Recipe r;
    r.name = std::string(ooo ? "ooo." : "inorder.") + prog;
    r.core = ooo ? "ooo" : "inorder";
    r.build = [ooo, image = std::move(image)] {
        Built b;
        if (ooo) {
            auto d = designs::buildOoo(image);
            b = {std::move(d.sys), d.mem, d.retired};
        } else {
            auto d =
                designs::buildCpu(designs::BranchPolicy::kTaken, image);
            b = {std::move(d.sys), d.mem, d.retired};
        }
        return b;
    };
    r.check = std::move(check);
    return r;
}

// --- cpu_sodor and hls_accel -------------------------------------------------

/** Every design run to completion on both engines, in seeded order. */
class DesignRuns : public Workload {
  public:
    DesignRuns(std::vector<Recipe> recipes, uint64_t seed)
        : recipes_(std::move(recipes)), order_(recipes_.size(), seed)
    {
    }
    double setup(Tracer &t) override { return setUpAll(recipes_, d_, t); }
    size_t roundSize() const override { return recipes_.size(); }
    OpResult
    op(uint64_t i, Tracer &t) override
    {
        return runPair(d_[order_.at(i)], t);
    }
    Counters
    exact(std::string &error) override
    {
        Counters c;
        designCounters(d_, c, error);
        return c;
    }

  private:
    std::vector<Recipe> recipes_;
    std::vector<Design> d_;
    Order order_;
};

/** Both cores on the six Sodor programs, checked by verify(). */
std::vector<Recipe>
sodorRecipes(const Config &cfg)
{
    std::vector<Recipe> out;
    for (const isa::Workload &wl : isa::sodorWorkloads()) {
        if (cfg.small && wl.name != "vvadd" && wl.name != "median")
            continue;
        auto image = isa::buildMemoryImage(wl);
        for (bool ooo : {false, true}) {
            Check check = [verify = wl.verify](
                              const std::vector<uint32_t> &mem) {
                return verify(mem) ? std::string()
                                   : "verify() rejected the final memory";
            };
            Recipe r = cpuRecipe(wl.name, ooo, image, check);
            r.sodor = wl.name;
            out.push_back(std::move(r));
        }
    }
    return out;
}

/** Check that mem[base + i] == golden[i] for every i. */
Check
regionCheck(uint32_t base, std::vector<uint32_t> golden)
{
    return [base, golden = std::move(golden)](
               const std::vector<uint32_t> &mem) -> std::string {
        if (base + golden.size() > mem.size())
            return "golden region outside memory";
        for (size_t i = 0; i < golden.size(); ++i)
            if (mem[base + i] != golden[i])
                return "output word " + std::to_string(i) + " is " +
                       std::to_string(mem[base + i]) + ", golden " +
                       std::to_string(golden[i]);
        return {};
    };
}

template <typename Data, typename Builder>
Recipe
accelRecipe(const std::string &name, std::shared_ptr<const Data> data,
            Builder build, uint32_t base, std::vector<uint32_t> golden,
            const Config &cfg)
{
    if (cfg.corrupt == name && !golden.empty())
        golden[0] ^= 1;
    Recipe r;
    r.name = name;
    r.build = [data, build] {
        designs::AccelDesign d = build(*data);
        Built b;
        b.sys = std::move(d.sys);
        b.mem = d.mem;
        return b;
    };
    r.check = regionCheck(base, std::move(golden));
    return r;
}

/** The five Table-2 accelerators on seeded data, golden-checked. */
std::vector<Recipe>
accelRecipes(const Config &cfg)
{
    using namespace designs;
    const bool s = cfg.small;
    // Table 2 data sizes; one derived seed per generator.
    auto seed = [&](uint64_t k) { return cfg.seed * 16 + k; };
    std::vector<Recipe> out;
    auto kmp = std::make_shared<const KmpData>(
        makeKmpData(s ? 512 : 32000, seed(1)));
    out.push_back(accelRecipe("kmp", kmp, buildKmpAccel, kmp->result_addr,
                              {kmp->expected_matches}, cfg));
    auto spmv = std::make_shared<const SpmvData>(
        makeSpmvData(s ? 32 : 494, s ? 4 : 10, seed(2)));
    out.push_back(accelRecipe("spmv", spmv, buildSpmvAccel, spmv->y_base,
                              spmv->golden_y, cfg));
    auto merge = std::make_shared<const SortData>(
        makeMergeSortData(s ? 64 : 2048, seed(3)));
    out.push_back(accelRecipe("merge", merge, buildMergeSortAccel,
                              merge->result_base, merge->golden, cfg));
    auto radix = std::make_shared<const SortData>(
        makeRadixSortData(s ? 64 : 2048, seed(4)));
    out.push_back(accelRecipe("radix", radix, buildRadixSortAccel,
                              radix->result_base, radix->golden, cfg));
    auto st = std::make_shared<const StencilData>(
        makeStencilData(s ? 16 : 128, s ? 16 : 128, seed(5)));
    out.push_back(accelRecipe("st-2d", st, buildStencilAccel, st->out_base,
                              st->golden_out, cfg));
    return out;
}

// --- grade -------------------------------------------------------------------

const char *
coreKey(grader::Core c)
{
    return c == grader::Core::kOoO ? "ooo" : "inorder";
}

class Grade : public Workload {
  public:
    explicit Grade(const Config &cfg)
    {
        programs_ = grader::loadCorpusDir(PERFBENCH_CORPUS_DIR);
        if (cfg.small)
            programs_.resize(std::min<size_t>(programs_.size(), 3));
        const int fuzz = cfg.small ? 2 : 6;
        Rng rng(cfg.seed);
        for (int i = 0; i < fuzz; ++i)
            programs_.push_back(grader::fuzzProgram(rng.next()));
        for (size_t i = 0; i < programs_.size(); ++i) {
            images_.push_back(programs_[i].image());
            for (grader::Core core :
                 {grader::Core::kInOrder, grader::Core::kOoO}) {
                recipes_.push_back(cpuRecipe(programs_[i].name,
                                             core == grader::Core::kOoO,
                                             images_.back(), {}));
                for (grader::Engine e :
                     {grader::Engine::kEvent, grader::Engine::kNetlist})
                    duts_.push_back({i, core, e});
            }
        }
        order_ = std::make_unique<Order>(duts_.size(), cfg.seed);
    }
    double setup(Tracer &t) override { return setUpAll(recipes_, d_, t); }
    size_t roundSize() const override { return duts_.size(); }

    OpResult
    op(uint64_t i, Tracer &t) override
    {
        const Dut &dut = duts_[order_->at(i)];
        const grader::CorpusProgram &p = programs_[dut.program];
        const std::string tag = std::string(coreKey(dut.core)) + "_" +
                                grader::engineName(dut.engine);
        OpResult out;
        // Grades are short and setup-bound, so c/s aggregates per core
        // over all programs rather than per program.
        out.group = coreKey(dut.core);
        out.cls = p.name + "/" + tag;
        out.core = coreKey(dut.core);
        grader::Verdict v;
        auto t0 = Clock::now();
        {
            Tracer::Scope s(t, "grade", tag);
            v = grader::gradeProgram(p, dut.core, dut.engine);
            s.work(v.cycles);
        }
        out.seconds = since(t0);
        // A grade's time is mostly per-grade setup, so the c/s of a
        // seeded fuzz program would follow its length, not engine speed:
        // only the fixed corpus counts towards c/s.
        if (!p.path.empty()) {
            int e = dut.engine == grader::Engine::kNetlist;
            out.cycles[e] = v.cycles;
            out.run_seconds[e] = out.seconds;
        }
        if (!v.pass())
            out.error = out.cls + ": grade " +
                        grader::gradeStatusName(v.status) +
                        (v.error.empty() ? "" : ": " + v.error);
        if (t.on) {
            // The golden model on its own, timed beside the grade.
            Tracer::Scope s(t, "iss.run", p.name);
            isa::Iss iss(images_[dut.program]);
            s.work(iss.run(p.max_cycles).retired);
        }
        return out;
    }

    Counters
    exact(std::string &error) override
    {
        Counters c;
        designCounters(d_, c, error);
        uint64_t retired = 0, cycles = 0;
        for (const Dut &dut : duts_) {
            grader::Verdict v = grader::gradeProgram(programs_[dut.program],
                                                     dut.core, dut.engine);
            if (!v.pass() && error.empty())
                error = programs_[dut.program].name + ": grade " +
                        grader::gradeStatusName(v.status);
            retired += v.retirements;
            cycles += v.cycles;
        }
        c["grader.retirements"] = double(retired);
        c["grader.cycles"] = double(cycles);
        return c;
    }

  private:
    struct Dut {
        size_t program;
        grader::Core core;
        grader::Engine engine;
    };
    std::vector<grader::CorpusProgram> programs_;
    std::vector<std::vector<uint32_t>> images_;
    std::vector<Recipe> recipes_;
    std::vector<Design> d_;
    std::vector<Dut> duts_;
    std::unique_ptr<Order> order_;
};

// --- replay ------------------------------------------------------------------

/** Either engine behind the few calls the replay workload makes. */
struct Engine {
    std::unique_ptr<sim::Simulator> ev;
    std::unique_ptr<rtl::NetlistSim> nl;

    Engine(const Design &d, int which)
    {
        if (which == kEvent)
            ev = std::make_unique<sim::Simulator>(d.prog, simOpts());
        else
            nl = std::make_unique<rtl::NetlistSim>(*d.nl, rtlOpts());
    }
    sim::RunResult run(uint64_t n) { return ev ? ev->run(n) : nl->run(n); }
    uint64_t cycle() const { return ev ? ev->cycle() : nl->cycle(); }
    sim::Snapshot snapshot() const
    {
        return ev ? ev->snapshot() : nl->snapshot();
    }
    void
    restore(const sim::Snapshot &s)
    {
        ev ? ev->restore(s) : nl->restore(s);
    }
};

/**
 * One debug session on one (core, engine), run forward to the design's
 * last cycle, with the byte-exact snapshots a straight run takes at
 * each reverse target.
 */
struct Session {
    const Design *design = nullptr;
    int engine = kEvent;
    uint64_t end = 0; ///< the cycle the design finishes at
    std::unique_ptr<Engine> eng;
    std::unique_ptr<debug::DebugSession> dbg;
    std::vector<uint64_t> targets;               ///< ascending
    std::vector<std::vector<uint8_t>> reference; ///< per target
    std::vector<size_t> sweep; ///< target indices left, descending cycle
};

class Replay : public Workload {
  public:
    explicit Replay(const Config &cfg) : rng_(cfg.seed)
    {
        // The longest-running Sodor program: most instructions retired.
        std::string longest;
        uint64_t most = 0;
        for (const isa::Workload &wl : isa::sodorWorkloads()) {
            if (cfg.small && wl.name != "median")
                continue;
            isa::Iss iss(isa::buildMemoryImage(wl));
            uint64_t n = iss.run().retired;
            if (n > most) {
                most = n;
                longest = wl.name;
            }
        }
        auto image = isa::buildMemoryImage(isa::workload(longest));
        for (bool ooo : {false, true}) {
            Recipe r = cpuRecipe(longest, ooo, image, {});
            r.sodor = longest;
            recipes_.push_back(std::move(r));
        }
        pool_ = cfg.small ? 8 : 48;
        sweep_ = cfg.small ? 4 : 16;
        target_seed_ = rng_.next();
    }

    double
    setup(Tracer &t) override
    {
        sessions_.clear();
        return setUpAll(recipes_, d_, t);
    }
    size_t roundSize() const override { return 4; }

    OpResult
    op(uint64_t i, Tracer &t) override
    {
        if (sessions_.empty())
            sessions_ = openSessions();
        Session &s = sessions_[i % sessions_.size()];
        const std::string tag = s.design->recipe->core + "_" +
                                (s.engine == kEvent ? "event" : "netlist");
        if (s.sweep.empty())
            newSweep(s, t, tag);
        size_t k = s.sweep.back();
        s.sweep.pop_back();
        uint64_t target = s.targets[k];

        OpResult out;
        out.cls = out.group = tag;
        out.core = s.design->recipe->core;
        uint64_t reexec0 = s.dbg->cyclesReexecuted();
        debug::Stop stop;
        auto t0 = Clock::now();
        {
            Tracer::Scope sp(t, "reverse", tag);
            stop = s.dbg->reverseTo(target);
        }
        out.seconds = since(t0);
        out.cycles[s.engine] = s.dbg->cyclesReexecuted() - reexec0;
        out.run_seconds[s.engine] = out.seconds;

        sim::Snapshot snap;
        {
            Tracer::Scope sp(t, "ckpt.snapshot", tag);
            snap = s.eng->snapshot();
        }
        std::vector<uint8_t> bytes = sim::encodeSnapshot(snap);
        if (stop.kind != debug::StopKind::kCycle || stop.cycle != target)
            out.error = tag + ": reverseTo(" + std::to_string(target) +
                        ") stopped at " + std::to_string(stop.cycle) +
                        " (" + debug::stopKindName(stop.kind) + ")";
        else if (bytes != s.reference[k])
            out.error = tag + ": reverseTo(" + std::to_string(target) +
                        ") state differs from a straight run";
        if (t.on) {
            // The session's state is exactly snap, so restoring it is a
            // timed no-op.
            Tracer::Scope sp(t, "ckpt.restore", tag);
            sp.work(bytes.size());
            s.eng->restore(snap);
        }
        return out;
    }

    Counters
    exact(std::string &error) override
    {
        Counters c;
        designCounters(d_, c, error);
        std::vector<Session> fresh = openSessions();
        uint64_t keyframes = 0, bytes = 0, reexec = 0, reverses = 0;
        for (Session &s : fresh) {
            bytes += sim::encodeSnapshot(s.eng->snapshot()).size();
            for (size_t k = s.targets.size(); k-- > 0;) {
                uint64_t before = s.dbg->cyclesReexecuted();
                s.dbg->reverseTo(s.targets[k]);
                reexec += s.dbg->cyclesReexecuted() - before;
                ++reverses;
                if (sim::encodeSnapshot(s.eng->snapshot()) !=
                        s.reference[k] &&
                    error.empty())
                    error = "reverseTo differs from a straight run";
            }
            keyframes += s.dbg->keyframesTaken();
        }
        c["ckpt.snapshot_bytes"] = double(bytes);
        c["debug.keyframes_taken"] = double(keyframes);
        c["debug.reexec_cycles_per_reverse"] =
            reverses ? double(reexec) / double(reverses) : 0;
        return c;
    }

  private:
    /** Sessions on every (core, engine), at their last cycle. */
    std::vector<Session>
    openSessions()
    {
        std::vector<Session> out;
        for (const Design &d : d_)
            for (int e : {kEvent, kNetlist}) {
                Session s;
                s.design = &d;
                s.engine = e;
                // Straight run: the end cycle, then the reference state
                // at each seeded target (the same targets every session
                // of this design, so the engines are comparable).
                Engine straight(d, e);
                straight.run(kMaxCycles);
                s.end = straight.cycle();
                std::vector<uint64_t> ts = drawTargets(s.end);
                Engine ref(d, e);
                for (uint64_t c : ts) {
                    ref.run(c - ref.cycle());
                    s.reference.push_back(
                        sim::encodeSnapshot(ref.snapshot()));
                }
                s.targets = std::move(ts);
                s.eng = std::make_unique<Engine>(d, e);
                if (e == kEvent)
                    s.dbg = std::make_unique<debug::DebugSession>(
                        *s.eng->ev, *d.built.sys);
                else
                    s.dbg = std::make_unique<debug::DebugSession>(
                        *s.eng->nl, *d.built.sys);
                s.dbg->runTo(s.end);
                out.push_back(std::move(s));
            }
        return out;
    }

    /**
     * The seeded reverse targets below @p end, stratified by distance
     * past the preceding keyframe — one draw from each of pool_ equal
     * slices of the keyframe interval — so that every seed re-executes
     * the same spread of lengths while landing on different cycles.
     */
    std::vector<uint64_t>
    drawTargets(uint64_t end) const
    {
        const uint64_t every = debug::DebugOptions{}.keyframe_every;
        Rng rng(target_seed_);
        std::vector<uint64_t> ts;
        for (uint64_t j = 0; j < pool_; ++j) {
            uint64_t d = (j * every + rng.below(every)) / pool_;
            if (d + 1 >= end)
                continue;
            uint64_t frames = (end - 1 - d) / every + 1;
            for (int tries = 0; tries < 8; ++tries) {
                uint64_t t = std::max<uint64_t>(
                    1, rng.below(frames) * every + d);
                if (std::find(ts.begin(), ts.end(), t) == ts.end()) {
                    ts.push_back(t);
                    break;
                }
            }
        }
        std::sort(ts.begin(), ts.end());
        return ts;
    }

    /**
     * Return the session to its last cycle and draw the next seeded
     * subset of targets, visited in descending order so that every
     * jump is a reverse one.
     */
    void
    newSweep(Session &s, Tracer &t, const std::string &tag)
    {
        {
            Tracer::Scope sp(t, "forward", tag);
            uint64_t from = s.dbg->cycle();
            s.dbg->runTo(s.end);
            sp.work(s.dbg->cycle() - from);
        }
        std::vector<size_t> idx(s.targets.size());
        for (size_t k = 0; k < idx.size(); ++k)
            idx[k] = k;
        rng_.shuffle(idx);
        idx.resize(std::min(sweep_, idx.size()));
        std::sort(idx.begin(), idx.end());
        s.sweep = std::move(idx); // popped from the back: descending
    }

    Rng rng_;
    size_t pool_ = 0;
    size_t sweep_ = 0;
    uint64_t target_seed_ = 0;
    std::vector<Recipe> recipes_;
    std::vector<Design> d_;
    std::vector<Session> sessions_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"cpu_sodor", "hls_accel",
                                                   "grade", "replay"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Config &cfg)
{
    if (name == "cpu_sodor")
        return std::make_unique<DesignRuns>(sodorRecipes(cfg), cfg.seed);
    if (name == "hls_accel")
        return std::make_unique<DesignRuns>(accelRecipes(cfg), cfg.seed);
    if (name == "grade")
        return std::make_unique<Grade>(cfg);
    if (name == "replay")
        return std::make_unique<Replay>(cfg);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

} // namespace perfbench
