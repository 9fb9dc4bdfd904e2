/**
 * @file
 * Host-normalized end-to-end benchmark: the command-line entry point.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1 --ref-mops R
 *
 * One process, one thread. The run sets the workload up repeatedly
 * (setup_s is the median), collects its exact counters once, then runs
 * its closed loop of checked operations for S seconds. The frozen
 * reference kernel (refkernel.h) runs in short slices between the timed
 * calls; every host-time end-to-end metric is reported as
 *   rate x (R / measured kernel rate)^b   or   time x (measured / R)^b,
 * so host-speed drift between runs cancels, with the raw value printed
 * beside it (b = kSensitivity). --trace 1 replaces the end-to-end metrics in the result
 * line by the per-layer ones: half the window runs untraced, half with
 * spans around every public call, and the difference is the tracing
 * overhead. Every metric is also printed by name and unit on its own
 * line; the last line of stdout is the JSON result.
 */
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/refkernel.h"
#include "perfbench/stats.h"
#include "perfbench/workloads.h"
#include "support/profiler.h"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

/** Kernel time as a share of the timed work it is interleaved with. */
constexpr double kLoopShare = 0.25;
/**
 * How strongly the engines' speed follows the kernel's: the slope of
 * log(throughput) on log(kernel rate) across processes. Measured on a
 * shared 4-vCPU KVM guest over 8 processes per workload: 1.25-1.34 on
 * cpu_sodor, 1.54-1.55 on grade, correlation 0.97-1.00 — host
 * contention slows the engines more than it slows the kernel.
 */
constexpr double kSensitivity = 1.4;

/** Factor that maps a rate measured at kernel rate @p mops to @p nominal. */
double
hostFactor(double nominal, double mops)
{
    return std::pow(nominal / mops, kSensitivity);
}
/** Setup is short, so the kernel matches it one for one. */
constexpr double kSetupShare = 1.0;
/** Setup repetitions: at least this many, and at least kSetupSeconds. */
constexpr int kSetupReps = 15;
constexpr double kSetupSeconds = 1.0;
constexpr int kSetupMaxReps = 400;
/** Traced setup repetitions (per-layer setup costs). */
constexpr int kTracedSetupReps = 5;

struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    double ref_mops = 0;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload W --seed N "
                 "--seconds S --trace 0|1 --ref-mops R\n",
                 why.c_str());
    std::exit(2);
}

Args
parse(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            usage("flag " + k + " expects a value");
        std::string v = argv[++i];
        try {
            if (k == "--workload")
                a.workload = v;
            else if (k == "--seed")
                a.seed = std::stoull(v);
            else if (k == "--seconds")
                a.seconds = std::stod(v);
            else if (k == "--trace")
                a.trace = std::stoi(v) != 0;
            else if (k == "--ref-mops")
                a.ref_mops = std::stod(v);
            else
                usage("unknown flag " + k);
        } catch (const std::logic_error &) {
            usage("bad value '" + v + "' for " + k);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!(a.seconds > 0))
        usage("--seconds must be positive");
    if (!(a.ref_mops > 0))
        usage("--ref-mops (the nominal kernel rate) must be positive");
    return a;
}

/** One metric of the result, with its un-normalized value if any. */
struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    bool normalized = false;
    double raw = 0;
};

void
printMetric(const Metric &m)
{
    if (m.normalized)
        std::printf("  %-34s %14.6g %-6s (raw %.6g)\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.raw);
    else
        std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

std::string
loadAvg()
{
    double l[3] = {0, 0, 0};
    if (getloadavg(l, 3) != 3)
        return "unavailable";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.2f %.2f %.2f", l[0], l[1], l[2]);
    return buf;
}

void
printFingerprint()
{
    auto kb = [](int name) {
        long v = sysconf(name);
        return v > 0 ? std::to_string(v / 1024) + "K" : std::string("?");
    };
    std::printf("host: nproc %u, L1d %s, L2 %s, L3 %s, loadavg %s\n",
                std::thread::hardware_concurrency(),
                kb(_SC_LEVEL1_DCACHE_SIZE).c_str(),
                kb(_SC_LEVEL2_CACHE_SIZE).c_str(),
                kb(_SC_LEVEL3_CACHE_SIZE).c_str(), loadAvg().c_str());
}

/** The operations of one measurement window. */
struct Window {
    std::vector<OpResult> ops;
    double ref_mops = 0;
};

Window
measure(Workload &wl, RefClock &clock, double seconds, Tracer &t,
        uint64_t &next_op)
{
    Window w;
    clock.clear();
    double busy = 0;
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    while (Clock::now() < deadline) {
        t.op = next_op;
        OpResult r;
        {
            Tracer::Scope root(t, "op");
            r = wl.op(next_op++, t);
        }
        busy += r.seconds;
        if (clock.lastMops() == 0)
            clock.slice();
        clock.keepUp(kLoopShare * busy);
        r.ref_mops = clock.lastMops();
        w.ops.push_back(std::move(r));
    }
    w.ref_mops = clock.mops();
    return w;
}

/** Median setup seconds over repeated full setups, and the kernel rate. */
struct SetupResult {
    double seconds = 0;
    double ref_mops = 0;
    int reps = 0;
};

SetupResult
setupPhase(Workload &wl, RefClock &clock, Tracer &t, int min_reps,
           double min_seconds)
{
    clock.clear();
    std::vector<double> samples;
    double busy = 0;
    while (samples.size() < size_t(min_reps) ||
           (busy < min_seconds && samples.size() < size_t(kSetupMaxReps))) {
        clock.keepUp(kSetupShare * busy);
        Tracer::Scope root(t, "setup");
        double s = wl.setup(t);
        samples.push_back(s);
        busy += s;
    }
    clock.keepUp(kSetupShare * busy);
    return {median(samples), clock.mops(), int(samples.size())};
}

/** End-to-end figures of one window. */
struct Figures {
    double sim_cps = 0, rtl_cps = 0, ops_per_s = 0;
    double op_ms_p50 = 0, raw_op_ms_p50 = 0;
    std::map<std::string, double> core_cps; ///< "sim_cps.inorder", ...
    std::map<std::string, double> design_cps; ///< "design.<group>.sim_cps"
    size_t attempted = 0, failed = 0;
    std::vector<std::string> errors;
    std::vector<double> latencies_ms, raw_latencies_ms;
};

/**
 * End-to-end figures of a window. Rates come out raw (run() scales them
 * by the window's kernel rate); latencies come out both raw and
 * normalized to @p nominal kernel Mop/s one by one, by the rate of the
 * most recent kernel slice, because a percentile of latencies taken
 * under drifting host speed is not linear in a run-wide factor.
 */
Figures
figures(const Window &w, double nominal)
{
    Figures f;
    struct Acc {
        std::string core;
        uint64_t cycles[2] = {0, 0};
        double seconds[2] = {0, 0};
    };
    std::map<std::string, Acc> groups;
    std::map<std::string, std::vector<double>> classes, local;
    double busy = 0;
    for (const OpResult &r : w.ops) {
        ++f.attempted;
        if (!r.error.empty()) {
            ++f.failed;
            if (f.errors.size() < 5)
                f.errors.push_back(r.error);
        }
        busy += r.seconds;
        const double ms = r.seconds * 1e3;
        const double local_ms = ms / hostFactor(nominal, r.ref_mops);
        f.raw_latencies_ms.push_back(ms);
        f.latencies_ms.push_back(local_ms);
        classes[r.cls].push_back(ms);
        local[r.cls].push_back(local_ms);
        Acc &a = groups[r.group];
        a.core = r.core;
        for (int e = 0; e < 2; ++e) {
            a.cycles[e] += r.cycles[e];
            a.seconds[e] += r.run_seconds[e];
        }
    }
    f.ops_per_s = busy > 0 ? double(w.ops.size()) / busy : 0;
    std::vector<double> medians, local_medians;
    for (const auto &[cls, ms] : classes)
        medians.push_back(median(ms));
    for (const auto &[cls, ms] : local)
        local_medians.push_back(median(ms));
    f.raw_op_ms_p50 = gmean(medians);
    f.op_ms_p50 = gmean(local_medians);
    // c/s per group and engine, geometric mean over groups.
    for (int e = 0; e < 2; ++e) {
        const char *engine = e == kEvent ? "sim_cps" : "rtl_cps";
        std::map<std::string, std::vector<double>> by_core;
        std::vector<double> all;
        for (const auto &[g, a] : groups)
            if (a.cycles[e] > 0 && a.seconds[e] > 0) {
                double cps = double(a.cycles[e]) / a.seconds[e];
                all.push_back(cps);
                f.design_cps["design." + g + "." + engine] = cps;
                if (!a.core.empty())
                    by_core[a.core].push_back(cps);
            }
        (e == kEvent ? f.sim_cps : f.rtl_cps) = gmean(all);
        for (const char *core : {"inorder", "ooo"})
            f.core_cps[std::string(engine) + "." + core] =
                gmean(by_core[core]);
    }
    return f;
}

/** The per-layer metric names, in BENCHMARK.json order, with units. */
const std::vector<std::pair<std::string, std::string>> &
layerNames()
{
    static const std::vector<std::pair<std::string, std::string>> names = {
        {"dsl.build_ms", "ms"},
        {"compiler.verify_ms", "ms"},
        {"compiler.fold_ms", "ms"},
        {"compiler.arbiter_ms", "ms"},
        {"compiler.timing_ms", "ms"},
        {"compiler.toposort_ms", "ms"},
        {"compiler.lower_ms", "ms"},
        {"program.compile_ms", "ms"},
        {"program.tape_steps", "count"},
        {"sim.ctor_us", "us"},
        {"sim.run_ns_per_cycle", "ns"},
        {"sim.execs_per_cycle", "count"},
        {"sim.skipped_per_cycle", "count"},
        {"sim.woken_per_cycle", "count"},
        {"netlist.elab_ms", "ms"},
        {"netlist.cells", "count"},
        {"netlist.cones", "count"},
        {"rtl.ctor_us", "us"},
        {"rtl.run_ns_per_cycle", "ns"},
        {"iss.run_us", "us"},
        {"grader.self_ms", "ms"},
        {"grader.ms_p50.inorder_event", "ms"},
        {"grader.ms_p50.inorder_netlist", "ms"},
        {"grader.ms_p50.ooo_event", "ms"},
        {"grader.ms_p50.ooo_netlist", "ms"},
        {"ckpt.snapshot_us", "us"},
        {"ckpt.restore_us", "us"},
        {"ckpt.snapshot_bytes", "count"},
        {"debug.reexec_cycles_per_reverse", "count"},
        {"debug.keyframes_taken", "count"},
        {"debug.step_cps", "c/s"},
        {"model.cycles", "count"},
        {"model.ipc.inorder", "count"},
        {"model.ipc.ooo", "count"},
        {"model.ipc_err_vs_sodor", "count"},
        {"sim_cps.inorder", "c/s"},
        {"sim_cps.ooo", "c/s"},
        {"rtl_cps.inorder", "c/s"},
        {"rtl_cps.ooo", "c/s"},
        {"host.ref_mops", "Mop/s"},
        {"trace.overhead_pct", "%"},
        {"raw.sim_cps", "c/s"},
        {"raw.rtl_cps", "c/s"},
        {"raw.ops_per_s", "1/s"},
        {"raw.op_ms.p50", "ms"},
        {"raw.setup_s", "s"},
    };
    return names;
}

/** Per-layer figures from the traced window's spans. */
std::map<std::string, double>
layerFigures(std::vector<Span> spans)
{
    std::vector<Span> foreign;
    for (const auto &p : assassyn::HostProfiler::instance().spans()) {
        Span s;
        s.name = p.name;
        s.begin_us = double(p.begin_us);
        s.end_us = double(p.end_us);
        foreign.push_back(std::move(s));
    }
    adopt(spans, std::move(foreign));
    const std::vector<double> self = selfTimes(spans);

    std::vector<int> root(spans.size(), -1);
    for (size_t i = 0; i < spans.size(); ++i) {
        int r = int(i);
        while (spans[size_t(r)].parent >= 0)
            r = spans[size_t(r)].parent;
        root[i] = r;
    }

    // Setup layers: totals per full setup, median over the setups.
    std::map<int, std::map<std::string, double>> per_setup;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (spans[size_t(root[i])].name != "setup" || int(i) == root[i])
            continue;
        auto &m = per_setup[root[i]];
        double ms = (s.end_us - s.begin_us) / 1e3;
        if (s.name == "build")
            m["dsl.build_ms"] += self[i] / 1e3;
        else if (s.name.rfind("pass:", 0) == 0)
            m["compiler." + s.name.substr(5) + "_ms"] += ms;
        else if (s.name == "program.compile")
            m["program.compile_ms"] += ms;
        else if (s.name == "netlist.elab")
            m["netlist.elab_ms"] += ms;
    }
    std::map<std::string, double> out;
    std::set<std::string> setup_keys;
    for (const auto &[r, m] : per_setup)
        for (const auto &[k, v] : m)
            setup_keys.insert(k);
    for (const std::string &k : setup_keys) {
        std::vector<double> xs;
        for (const auto &[r, m] : per_setup) {
            auto it = m.find(k);
            xs.push_back(it == m.end() ? 0.0 : it->second);
        }
        out[k] = median(xs);
    }

    // Operation layers.
    std::map<std::string, std::vector<double>> durs; // name -> us
    std::map<std::string, double> dur_sum, work_sum;
    std::map<std::string, std::vector<double>> grade_by_dut;
    double grade_self = 0;
    size_t grades = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        double us = s.end_us - s.begin_us;
        durs[s.name].push_back(us);
        dur_sum[s.name] += us;
        work_sum[s.name] += double(s.work);
        if (s.name == "grade") {
            grade_self += self[i];
            ++grades;
            grade_by_dut[s.tag].push_back(us / 1e3);
        }
    }
    auto rate = [&](const char *name, double scale) {
        return work_sum[name] > 0 ? dur_sum[name] * scale / work_sum[name]
                                  : 0.0;
    };
    out["sim.ctor_us"] = median(durs["sim.ctor"]);
    out["rtl.ctor_us"] = median(durs["rtl.ctor"]);
    out["sim.run_ns_per_cycle"] = rate("sim.run", 1e3);
    out["rtl.run_ns_per_cycle"] = rate("rtl.run", 1e3);
    out["iss.run_us"] = median(durs["iss.run"]);
    out["grader.self_ms"] = grades ? grade_self / 1e3 / double(grades) : 0;
    for (const char *dut :
         {"inorder_event", "inorder_netlist", "ooo_event", "ooo_netlist"})
        out[std::string("grader.ms_p50.") + dut] = median(grade_by_dut[dut]);
    out["ckpt.snapshot_us"] = median(durs["ckpt.snapshot"]);
    out["ckpt.restore_us"] = median(durs["ckpt.restore"]);
    out["debug.step_cps"] = dur_sum["forward"] > 0
                                ? work_sum["forward"] / dur_sum["forward"] * 1e6
                                : 0;
    return out;
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

/** Latency percentiles named for the workload's operation. */
void
namedLatencies(const std::string &workload, const Figures &f, double rate_f,
               std::vector<Metric> &out)
{
    auto add = [&](const std::string &name, double p) {
        double v = p == 50 ? median(f.latencies_ms)
                           : percentile(f.latencies_ms, p, name);
        double raw = p == 50 ? median(f.raw_latencies_ms)
                             : percentile(f.raw_latencies_ms, p, name);
        out.push_back({name, v, "ms", true, raw});
    };
    if (workload == "grade" || workload == "replay") {
        const std::string pre =
            workload == "grade" ? "grade_ms" : "reverse_ms";
        add(pre + ".p50", 50);
        add(pre + ".p99", 99);
        if (workload == "grade")
            out.push_back({"grades_per_s", f.ops_per_s * rate_f, "1/s",
                           true, f.ops_per_s});
        return;
    }
    // A simulation run: the highest tail the run has samples for.
    for (double p : {99.0, 90.0})
        if (double(f.latencies_ms.size()) * (1 - p / 100) >= kMinBeyond) {
            add("op_ms.p" + std::to_string(int(p)), p);
            return;
        }
}

int
run(const Args &a)
{
    RefClock clock;
    if (!clock.kernel().selfCheck()) {
        std::fprintf(stderr, "perfbench: reference kernel checksum mismatch: "
                             "the kernel is no longer the frozen one\n");
        return 3;
    }
    printFingerprint();
    Config cfg;
    cfg.seed = a.seed;
    std::unique_ptr<Workload> wl = makeWorkload(a.workload, cfg);

    Tracer off;
    SetupResult su = setupPhase(*wl, clock, off, kSetupReps, kSetupSeconds);
    std::string exact_error;
    Counters exact = wl->exact(exact_error);

    uint64_t next_op = 0;
    const double window = a.trace ? a.seconds / 2 : a.seconds;
    Window w = measure(*wl, clock, window, off, next_op);
    Figures f = figures(w, a.ref_mops);
    // Rates are multiplied by the host factor, times divided by it.
    const double rate_f = hostFactor(a.ref_mops, w.ref_mops);
    const double setup_time_f = 1 / hostFactor(a.ref_mops, su.ref_mops);

    std::vector<Metric> e2e = {
        {"sim_cps", f.sim_cps * rate_f, "c/s", true, f.sim_cps},
        {"rtl_cps", f.rtl_cps * rate_f, "c/s", true, f.rtl_cps},
        {"ops_per_s", f.ops_per_s * rate_f, "1/s", true, f.ops_per_s},
        {"op_ms.p50", f.op_ms_p50, "ms", true, f.raw_op_ms_p50},
        {"setup_s", su.seconds * setup_time_f, "s", true, su.seconds},
    };
    std::vector<Metric> named;
    for (const auto &[k, v] : f.core_cps)
        named.push_back({k, v * rate_f, "c/s", true, v});
    for (const auto &[k, v] : f.design_cps)
        named.push_back({k, v * rate_f, "c/s", true, v});
    namedLatencies(a.workload, f, rate_f, named);

    size_t attempted = f.attempted, failed = f.failed;
    std::vector<std::string> errors = f.errors;
    std::vector<Metric> layers;
    if (a.trace) {
        assassyn::HostProfiler::instance().enable();
        Tracer t;
        t.start();
        setupPhase(*wl, clock, t, kTracedSetupReps, 0);
        Window tw = measure(*wl, clock, window, t, next_op);
        assassyn::HostProfiler::instance().disable();
        Figures tf = figures(tw, a.ref_mops);
        attempted += tf.attempted;
        failed += tf.failed;
        errors.insert(errors.end(), tf.errors.begin(), tf.errors.end());

        std::map<std::string, double> v = layerFigures(std::move(t.spans));
        for (const auto &[k, x] : exact)
            v[k] = x;
        for (const auto &[k, x] : f.core_cps)
            v[k] = x * rate_f;
        v["host.ref_mops"] = w.ref_mops;
        // Both windows normalized by their own kernel rate.
        double traced_ops = tf.ops_per_s * hostFactor(a.ref_mops, tw.ref_mops);
        double plain_ops = f.ops_per_s * rate_f;
        v["trace.overhead_pct"] =
            traced_ops > 0 ? (plain_ops / traced_ops - 1) * 100 : 0;
        v["raw.sim_cps"] = f.sim_cps;
        v["raw.rtl_cps"] = f.rtl_cps;
        v["raw.ops_per_s"] = f.ops_per_s;
        v["raw.op_ms.p50"] = f.raw_op_ms_p50;
        v["raw.setup_s"] = su.seconds;
        for (const auto &[name, unit] : layerNames())
            layers.push_back({name, v[name], unit, false, 0});
    }
    e2e.push_back({"peak_rss_mb", peakRssMb(), "MB", false, 0});

    const bool correct = exact_error.empty() && failed == 0;
    std::printf("workload %s, seed %llu: %zu operations, %zu failed "
                "(share %.6g), setup x%d\n",
                a.workload.c_str(), (unsigned long long)a.seed, attempted,
                failed, attempted ? double(failed) / double(attempted) : 0.0,
                su.reps);
    std::printf("host.ref_mops %.6g Mop/s (setup %.6g, nominal %.6g); "
                "loadavg at end %s\n",
                w.ref_mops, su.ref_mops, a.ref_mops, loadAvg().c_str());
    if (!exact_error.empty())
        std::fprintf(stderr, "perfbench: exact pass: %s\n",
                     exact_error.c_str());
    for (const std::string &e : errors)
        std::fprintf(stderr, "perfbench: failed operation: %s\n", e.c_str());
    std::printf("end-to-end (host-normalized):\n");
    for (const Metric &m : e2e)
        printMetric(m);
    for (const Metric &m : named)
        printMetric(m);
    std::printf("exact counters:\n");
    for (const auto &[k, x] : exact)
        printMetric({k, x, "count", false, 0});
    if (a.trace) {
        std::printf("per-layer (traced window):\n");
        for (const Metric &m : layers)
            printMetric(m);
    }

    std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    const std::vector<Metric> &result = a.trace ? layers : e2e;
    bool first = true;
    for (const Metric &m : result) {
        json += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " +
                jsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parse(argc, argv);
    try {
        return run(a);
    } catch (const std::exception &e) {
        std::fflush(stdout);
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
