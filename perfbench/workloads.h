/**
 * @file
 * The benchmark's workloads. Each one is a closed loop of checked
 * operations over designs it builds itself from seeded inputs, timed
 * from outside by calls into the library's public functions:
 *
 *  - cpu_sodor: both CPU cores run the six Sodor programs on both
 *    engines (busy pipelines: tape dispatch and cell evaluation).
 *  - hls_accel: the five Table-2 accelerators at paper sizes on both
 *    engines (mostly idle FSMs: wake-list skip and activity cones).
 *  - grade:     the grader corpus plus seeded fuzz programs on
 *    {in-order, OoO} x {event, netlist}, lockstep with the ISS
 *    (per-grade setup, hooks and the ISS).
 *  - replay:    one DebugSession per (core, engine) on the longest
 *    Sodor program, making seeded reverseTo jumps inside the keyframe
 *    ring (checkpoint restore plus bounded re-execution).
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/stats.h"

namespace perfbench {

/** Workload inputs. The program receives only what these generate. */
struct Config {
    uint64_t seed = 1;
    /** Reduced design and data sizes, for the self-tests. */
    bool small = false;
    /** hls_accel design given a deliberately wrong golden value (tests). */
    std::string corrupt;
};

/** In-memory span recorder; off unless the run is traced. */
class Tracer {
  public:
    bool on = false;
    uint64_t op = 0; ///< identifier stamped on every span recorded
    std::vector<Span> spans;

    /** Start the clock; call right after HostProfiler::enable(). */
    void
    start()
    {
        epoch_ = std::chrono::steady_clock::now();
        on = true;
    }

    /** Microseconds since start(). */
    double
    now() const
    {
        return std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - epoch_)
            .count();
    }

    /** Opens a span for its lifetime; nested scopes become children. */
    class Scope {
      public:
        Scope(Tracer &t, const char *name, std::string tag = {})
            : t_(t)
        {
            if (!t_.on)
                return;
            idx_ = int(t_.spans.size());
            Span s;
            s.name = name;
            s.tag = std::move(tag);
            s.op = t_.op;
            s.parent = t_.open_;
            s.begin_us = t_.now();
            t_.spans.push_back(std::move(s));
            t_.open_ = idx_;
        }
        ~Scope()
        {
            if (idx_ < 0)
                return;
            t_.spans[idx_].end_us = t_.now();
            t_.open_ = t_.spans[idx_].parent;
        }
        /** Attach a work count (cycles, bytes) to the span. */
        void
        work(uint64_t n)
        {
            if (idx_ >= 0)
                t_.spans[idx_].work = n;
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &t_;
        int idx_ = -1;
    };

  private:
    std::chrono::steady_clock::time_point epoch_;
    int open_ = -1;
};

/** Engine indices of per-engine figures. */
enum EngineIdx { kEvent = 0, kNetlist = 1 };

/** Outcome of one timed operation. */
struct OpResult {
    /** Operation class (design, program x DUT, session) for medians. */
    std::string cls;
    /** Group the c/s figures aggregate over (design, or program x core). */
    std::string group;
    /** Core family of the group: "inorder", "ooo", or "" (accelerator). */
    std::string core;
    double seconds = 0; ///< latency: the timed calls only
    /** Rate of the most recent reference-kernel slice (Mop/s). */
    double ref_mops = 0;
    uint64_t cycles[2] = {0, 0};      ///< simulated cycles per engine
    double run_seconds[2] = {0, 0};   ///< host time those cycles took
    std::string error;                ///< empty when the operation passed
};

/** Exact counters: deterministic for a given seed and code. */
using Counters = std::map<std::string, double>;

class Workload {
  public:
    virtual ~Workload() = default;
    /**
     * One full setup from nothing to engines ready at cycle 0 for every
     * design the workload runs: builders (DSL build and compile passes),
     * Program::compile, Netlist, and both engine constructors. Input
     * generation happens once, in the constructor, and is excluded.
     * Returns the host seconds of the timed calls.
     */
    virtual double setup(Tracer &t) = 0;
    /** Operations in one round of the closed loop. */
    virtual size_t roundSize() const = 0;
    /** Run operation @p i (counting from the first of the run). */
    virtual OpResult op(uint64_t i, Tracer &t) = 0;
    /**
     * One untimed pass collecting every exact counter and model.*
     * value; an empty @p error means every cross-check held.
     */
    virtual Counters exact(std::string &error) = 0;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Build a workload; throws std::invalid_argument on an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const Config &cfg);

} // namespace perfbench
