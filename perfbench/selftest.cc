/**
 * @file
 * The benchmark's own tests: the frozen reference kernel, the
 * percentile and self-time helpers, failed-operation accounting, and
 * bit-exact repetition of every exact counter.
 */
#include <gtest/gtest.h>

#include <set>

#include "perfbench/refkernel.h"
#include "perfbench/stats.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

TEST(RefKernel, ChecksumMatchesTheFrozenConstant)
{
    RefKernel k;
    EXPECT_TRUE(k.selfCheck());
}

TEST(RefKernel, ChecksumDetectsADifferentStream)
{
    RefKernel k;
    EXPECT_NE(k.run(RefKernel::kCheckSteps - 1), RefKernel::kCheckSum);
    k.reset();
    EXPECT_EQ(k.run(RefKernel::kCheckSteps), RefKernel::kCheckSum);
}

std::vector<double>
oneTo(int n)
{
    std::vector<double> xs;
    for (int i = n; i >= 1; --i)
        xs.push_back(i);
    return xs;
}

TEST(Percentile, ReportsOnlyWithTenSamplesBeyond)
{
    EXPECT_EQ(percentile(oneTo(1000), 99, "t"), 990);
    EXPECT_THROW(percentile(oneTo(999), 99, "t"), std::runtime_error);
    EXPECT_EQ(percentile(oneTo(20), 50, "t"), 10);
    EXPECT_THROW(percentile(oneTo(19), 50, "t"), std::runtime_error);
    EXPECT_EQ(percentile(oneTo(100), 90, "t"), 90);
    EXPECT_THROW(percentile(oneTo(99), 90, "t"), std::runtime_error);
    EXPECT_THROW(percentile({}, 50, "t"), std::runtime_error);
}

Span
span(const char *name, int parent, double b, double e)
{
    Span s;
    s.name = name;
    s.parent = parent;
    s.begin_us = b;
    s.end_us = e;
    return s;
}

TEST(SelfTime, SubtractsTheUnionOfChildrenInsideTheParent)
{
    std::vector<Span> spans = {
        span("root", -1, 0, 100), // 0
        span("a", 0, 10, 30),     // 1
        span("b", 0, 20, 50),     // 2: overlaps a
        span("c", 0, 90, 120),    // 3: runs past the root
        span("a1", 1, 12, 14),    // 4: grandchild of root
    };
    std::vector<double> self = selfTimes(spans);
    EXPECT_DOUBLE_EQ(self[0], 100 - 40 - 10);
    EXPECT_DOUBLE_EQ(self[1], 18);
    EXPECT_DOUBLE_EQ(self[2], 30);
    EXPECT_DOUBLE_EQ(self[3], 30);
    EXPECT_DOUBLE_EQ(self[4], 2);
}

TEST(SelfTime, AdoptedProfilerSpansNestByMidpoint)
{
    std::vector<Span> mine = {
        span("setup", -1, 0.4, 100.4), // 0
        span("build", 0, 10.6, 60.2),  // 1
    };
    // Truncated to whole microseconds: "verify" appears to start 0.6 us
    // before the build span that encloses it.
    std::vector<Span> foreign = {
        span("pass:verify", -1, 10, 20),
        span("pass:fold", -1, 20, 30),
        span("Program::compile", -1, 70, 80),
        span("outer", -1, 40, 50),
        span("inner", -1, 41, 45),
    };
    adopt(mine, foreign);
    ASSERT_EQ(mine.size(), 7u);
    auto parentName = [&](const char *name) -> std::string {
        for (const Span &s : mine)
            if (s.name == name)
                return s.parent < 0 ? "" : mine[size_t(s.parent)].name;
        return "?";
    };
    EXPECT_EQ(parentName("pass:verify"), "build");
    EXPECT_EQ(parentName("pass:fold"), "build");
    EXPECT_EQ(parentName("Program::compile"), "setup");
    EXPECT_EQ(parentName("outer"), "build");
    EXPECT_EQ(parentName("inner"), "outer");
    std::vector<double> self = selfTimes(mine);
    EXPECT_NEAR(self[1], (60.2 - 10.6) - (20 - 10.6) - 10 - 10, 1e-9);
}

Config
small(uint64_t seed = 7)
{
    Config cfg;
    cfg.seed = seed;
    cfg.small = true;
    return cfg;
}

/** Run one full round of @p wl; returns its results. */
std::vector<OpResult>
round(Workload &wl)
{
    Tracer off;
    wl.setup(off);
    std::vector<OpResult> out;
    for (uint64_t i = 0; i < wl.roundSize(); ++i)
        out.push_back(wl.op(i, off));
    return out;
}

size_t
failures(const std::vector<OpResult> &ops)
{
    size_t n = 0;
    for (const OpResult &r : ops)
        n += !r.error.empty();
    return n;
}

TEST(FailedOps, EveryWorkloadPassesOnCorrectCode)
{
    for (const std::string &name : workloadNames()) {
        auto wl = makeWorkload(name, small());
        std::vector<OpResult> ops = round(*wl);
        EXPECT_EQ(failures(ops), 0u) << name;
        // One round runs every operation class exactly once.
        std::set<std::string> classes;
        for (const OpResult &r : ops)
            classes.insert(r.cls);
        EXPECT_EQ(classes.size(), wl->roundSize()) << name;
    }
}

TEST(FailedOps, WrongGoldenValueFailsExactlyOneOperation)
{
    Config cfg = small();
    cfg.corrupt = "spmv";
    auto wl = makeWorkload("hls_accel", cfg);
    std::vector<OpResult> ops = round(*wl);
    ASSERT_EQ(failures(ops), 1u);
    for (const OpResult &r : ops) {
        if (!r.error.empty()) {
            EXPECT_EQ(r.error.rfind("spmv: output word 0", 0), 0u) << r.error;
        }
    }
}

TEST(ExactCounters, RepeatBitForBitInProcess)
{
    for (const std::string &name : workloadNames()) {
        Counters c[2];
        std::vector<OpResult> ops[2];
        for (int k = 0; k < 2; ++k) {
            auto wl = makeWorkload(name, small());
            ops[k] = round(*wl);
            std::string error;
            c[k] = wl->exact(error);
            EXPECT_EQ(error, "") << name;
        }
        EXPECT_FALSE(c[0].empty()) << name;
        EXPECT_EQ(c[0], c[1]) << name;
        ASSERT_EQ(ops[0].size(), ops[1].size()) << name;
        for (size_t i = 0; i < ops[0].size(); ++i) {
            EXPECT_EQ(ops[0][i].cls, ops[1][i].cls) << name;
            EXPECT_EQ(ops[0][i].cycles[kEvent], ops[1][i].cycles[kEvent])
                << name << " op " << i;
            EXPECT_EQ(ops[0][i].cycles[kNetlist],
                      ops[1][i].cycles[kNetlist])
                << name << " op " << i;
        }
    }
}

TEST(ExactCounters, CoverTheLayersTheyCount)
{
    std::string error;
    auto cpu = makeWorkload("cpu_sodor", small());
    round(*cpu);
    Counters c = cpu->exact(error);
    for (const char *key :
         {"model.cycles", "sim.execs_per_cycle", "sim.skipped_per_cycle",
          "program.tape_steps", "netlist.cells", "netlist.cones",
          "model.ipc.inorder", "model.ipc.ooo"})
        EXPECT_GT(c.at(key), 0) << key;
    auto replay = makeWorkload("replay", small());
    round(*replay);
    c = replay->exact(error);
    EXPECT_GT(c.at("ckpt.snapshot_bytes"), 0);
    EXPECT_GT(c.at("debug.reexec_cycles_per_reverse"), 0);
    EXPECT_GT(c.at("debug.keyframes_taken"), 0);
    auto grade = makeWorkload("grade", small());
    round(*grade);
    EXPECT_GT(grade->exact(error).at("grader.retirements"), 0);
    EXPECT_EQ(error, "");
}

} // namespace
} // namespace perfbench
