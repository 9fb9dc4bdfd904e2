/**
 * @file
 * The arrayView contract on both engines: the bulk read of a register
 * array equals readArray element by element before the first run(), at
 * a mid-run slice boundary, inside a cycle hook, and after a restore();
 * a span taken earlier keeps tracking the live storage; and the views
 * of the two engines agree at the same cycle. Checked on both CPUs.
 */
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "grader/corpus.h"
#include "grader/grader.h"
#include "rtl/netlist_sim.h"
#include "sim/simulator.h"

namespace assassyn {
namespace {

using grader::CompiledCore;
using grader::Core;

/** Every array of @p sys, copied out through arrayView. */
template <typename EngineT>
std::vector<std::vector<uint64_t>>
allViews(const EngineT &eng, const System &sys)
{
    std::vector<std::vector<uint64_t>> out;
    for (const auto &arr : sys.arrays()) {
        std::span<const uint64_t> view = eng.arrayView(arr.get());
        out.emplace_back(view.begin(), view.end());
    }
    return out;
}

/** arrayView equals readArray for every element of every array. */
template <typename EngineT>
void
expectViewsMatchReads(const EngineT &eng, const System &sys,
                      const std::string &where)
{
    for (const auto &arr : sys.arrays()) {
        std::span<const uint64_t> view = eng.arrayView(arr.get());
        ASSERT_EQ(view.size(), arr->size()) << where << ": " << arr->name();
        for (size_t i = 0; i < view.size(); ++i)
            ASSERT_EQ(view[i], eng.readArray(arr.get(), i))
                << where << ": " << arr->name() << "[" << i << "]";
    }
}

class ArrayViewTest : public ::testing::TestWithParam<Core> {};

TEST_P(ArrayViewTest, ViewEqualsReadArrayOnBothEngines)
{
    grader::CorpusProgram prog = grader::fuzzProgram(11);
    std::unique_ptr<const CompiledCore> dut =
        grader::compileCore(GetParam(), prog.image());
    const System &sys = *dut->sys;

    sim::Simulator es(dut->program);
    rtl::NetlistSim ns(*dut->netlist);
    expectViewsMatchReads(es, sys, "event, before run");
    expectViewsMatchReads(ns, sys, "netlist, before run");
    EXPECT_EQ(allViews(es, sys), allViews(ns, sys));

    // Spans taken now must track the storage through later cycles.
    std::span<const uint64_t> early_rf = es.arrayView(dut->rf);
    std::span<const uint64_t> early_mem = ns.arrayView(dut->mem);

    uint64_t hook_cycles = 0;
    es.addPostCycleHook([&](uint64_t) {
        ++hook_cycles;
        std::span<const uint64_t> rf = es.arrayView(dut->rf);
        for (size_t i = 0; i < rf.size(); ++i)
            ASSERT_EQ(rf[i], es.readArray(dut->rf, i));
    });

    constexpr uint64_t kSlice = 60;
    es.run(kSlice);
    ns.run(kSlice);
    ASSERT_EQ(es.cycle(), kSlice);
    ASSERT_EQ(ns.cycle(), kSlice);
    EXPECT_EQ(hook_cycles, kSlice);
    expectViewsMatchReads(es, sys, "event, mid-run");
    expectViewsMatchReads(ns, sys, "netlist, mid-run");
    EXPECT_EQ(allViews(es, sys), allViews(ns, sys));
    for (size_t i = 0; i < early_rf.size(); ++i)
        EXPECT_EQ(early_rf[i], es.readArray(dut->rf, i));
    for (size_t i = 0; i < early_mem.size(); ++i)
        EXPECT_EQ(early_mem[i], ns.readArray(dut->mem, i));

    // Run on, then rewind both engines to the slice boundary: the event
    // snapshot restores on both, so the netlist side crosses engines.
    sim::Snapshot snap = es.snapshot();
    std::vector<std::vector<uint64_t>> at_slice = allViews(es, sys);
    es.run(prog.max_cycles);
    ns.run(prog.max_cycles);
    ASSERT_TRUE(es.finished());
    ASSERT_TRUE(ns.finished());
    EXPECT_EQ(allViews(es, sys), allViews(ns, sys));
    ASSERT_NE(allViews(es, sys), at_slice) << "the run must move state";

    es.restore(snap);
    ns.restore(snap);
    expectViewsMatchReads(es, sys, "event, after restore");
    expectViewsMatchReads(ns, sys, "netlist, after restore");
    EXPECT_EQ(allViews(es, sys), at_slice);
    EXPECT_EQ(allViews(ns, sys), at_slice);
    for (size_t i = 0; i < early_rf.size(); ++i)
        EXPECT_EQ(early_rf[i], es.readArray(dut->rf, i));
}

INSTANTIATE_TEST_SUITE_P(Cores, ArrayViewTest,
                         ::testing::Values(Core::kInOrder, Core::kOoO),
                         [](const ::testing::TestParamInfo<Core> &info) {
                             return std::string(
                                 grader::coreName(info.param));
                         });

} // namespace
} // namespace assassyn
