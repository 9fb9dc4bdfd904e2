/**
 * @file
 * The grader's compile-once cache (ctest -L grade; docs/grading.md,
 * "Cost of a grade"). Every grade of a (core, mem_words) shape shares
 * one CompiledCore built over a zero image and loads its program with
 * writeArray pokes. The pokes must be invisible: for every corpus
 * program on both cores and both engines, a run on the shared core is
 * byte-identical — metrics JSON, logs, final mem and rf, and the
 * verdict — to a run on a core built fresh over the program's image.
 * And a whole-corpus grade compiles each shape at most once.
 */
#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <utility>

#include "grader/corpus.h"
#include "grader/grader.h"
#include "rtl/netlist_sim.h"
#include "sim/program.h"
#include "sim/simulator.h"
#include "support/logging.h"

namespace assassyn {
namespace grader {
namespace {

const std::vector<CorpusProgram> &
corpus()
{
    static const std::vector<CorpusProgram> programs = loadCorpusDir(
        std::string(ASSASSYN_SOURCE_DIR) + "/tests/corpus");
    return programs;
}

std::vector<std::string>
corpusNames()
{
    std::vector<std::string> names;
    for (const CorpusProgram &prog : corpus())
        names.push_back(prog.name);
    return names;
}

const CorpusProgram &
programNamed(const std::string &name)
{
    for (const CorpusProgram &prog : corpus())
        if (prog.name == name)
            return prog;
    fatal("no corpus program '", name, "'");
}

/** Everything observable about one engine run. */
struct RunOutcome {
    std::string metrics;
    std::vector<std::string> logs;
    std::vector<uint64_t> mem;
    std::vector<uint64_t> rf;
};

/**
 * Run @p dut to the program's budget, after poking @p image into every
 * word where it differs from the compiled initial memory (none, on a
 * core built over @p image).
 */
template <typename EngineT>
RunOutcome
runOn(EngineT &eng, const CompiledCore &dut,
      const std::vector<uint32_t> &image, uint64_t max_cycles)
{
    const std::vector<uint64_t> &init = dut.mem->init();
    for (size_t w = 0; w < image.size(); ++w)
        if (image[w] != init[w])
            eng.writeArray(dut.mem, w, image[w]);
    eng.run(max_cycles);
    EXPECT_TRUE(eng.finished());
    RunOutcome out;
    out.metrics = eng.metrics().toJson("grader_shared_core");
    out.logs = eng.logOutput();
    std::span<const uint64_t> mem = eng.arrayView(dut.mem);
    std::span<const uint64_t> rf = eng.arrayView(dut.rf);
    out.mem.assign(mem.begin(), mem.end());
    out.rf.assign(rf.begin(), rf.end());
    return out;
}

RunOutcome
runOn(const CompiledCore &dut, Engine engine,
      const std::vector<uint32_t> &image, uint64_t max_cycles)
{
    if (engine == Engine::kEvent) {
        sim::Simulator sim(dut.program);
        return runOn(sim, dut, image, max_cycles);
    }
    rtl::NetlistSim sim(*dut.netlist);
    return runOn(sim, dut, image, max_cycles);
}

using SharedParam = std::tuple<std::string, Core, Engine>;

class SharedCoreTest : public ::testing::TestWithParam<SharedParam> {};

TEST_P(SharedCoreTest, MatchesAFreshBuildOverTheImage)
{
    const auto &[name, core, engine] = GetParam();
    const CorpusProgram &prog = programNamed(name);
    std::vector<uint32_t> image = prog.image();

    const CompiledCore &shared = sharedCore(core, prog.mem_words);
    std::unique_ptr<const CompiledCore> fresh = compileCore(core, image);
    ASSERT_NE(shared.mem->init(), fresh->mem->init())
        << "the shared core must not already hold this image";

    RunOutcome a = runOn(shared, engine, image, prog.max_cycles);
    RunOutcome b = runOn(*fresh, engine, image, prog.max_cycles);
    EXPECT_EQ(a.metrics, b.metrics);
    EXPECT_EQ(a.logs, b.logs);
    EXPECT_EQ(a.mem, b.mem);
    EXPECT_EQ(a.rf, b.rf);

    Verdict cached = gradeProgram(prog, core, engine);
    Verdict rebuilt = gradeOn(*fresh, prog, engine);
    EXPECT_TRUE(cached.pass()) << cached.toJson();
    EXPECT_EQ(cached.toJson(), rebuilt.toJson());
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, SharedCoreTest,
    ::testing::Combine(::testing::ValuesIn(corpusNames()),
                       ::testing::Values(Core::kInOrder, Core::kOoO),
                       ::testing::Values(Engine::kEvent,
                                         Engine::kNetlist)),
    [](const ::testing::TestParamInfo<SharedParam> &info) {
        std::string id = std::get<0>(info.param);
        id += std::string("_") + coreName(std::get<1>(info.param));
        id += std::string("_") + engineName(std::get<2>(info.param));
        for (char &c : id)
            if (c == '-')
                c = '_';
        return id;
    });

TEST(SharedCoreSuite, CorpusGradeCompilesOncePerCoreAndMemorySize)
{
    std::set<std::pair<Core, uint32_t>> shapes;
    for (const CorpusProgram &prog : corpus())
        for (Core core : {Core::kInOrder, Core::kOoO})
            shapes.insert({core, prog.mem_words});

    uint64_t before = sim::Program::compileCount();
    GradeReport first =
        gradeCorpus(corpus(), {Core::kInOrder, Core::kOoO},
                    {Engine::kEvent, Engine::kNetlist}, {}, 2);
    uint64_t compiled = sim::Program::compileCount() - before;
    EXPECT_TRUE(first.allPass());
    EXPECT_EQ(first.runs.size(), corpus().size() * 4);
    EXPECT_LE(compiled, shapes.size());

    before = sim::Program::compileCount();
    GradeReport second =
        gradeCorpus(corpus(), {Core::kInOrder, Core::kOoO},
                    {Engine::kEvent, Engine::kNetlist}, {}, 2);
    EXPECT_EQ(sim::Program::compileCount(), before)
        << "a warm cache compiles nothing";
    EXPECT_TRUE(second.allPass());
}

TEST(SharedCoreSuite, SharedCoreIsKeyedByCoreAndMemorySize)
{
    const CompiledCore &a = sharedCore(Core::kInOrder, 256);
    EXPECT_EQ(&a, &sharedCore(Core::kInOrder, 256));
    EXPECT_NE(&a, &sharedCore(Core::kOoO, 256));
    const CompiledCore &b = sharedCore(Core::kInOrder, 128);
    EXPECT_NE(&a, &b);
    EXPECT_EQ(a.mem->size(), 256u);
    EXPECT_EQ(b.mem->size(), 128u);
    for (uint64_t word : b.mem->init())
        EXPECT_EQ(word, 0u);
}

TEST(SharedCoreSuite, MismatchedMemorySizeIsAStructuredFatal)
{
    CorpusProgram prog = programNamed("arith");
    prog.mem_words = 512;
    EXPECT_THROW(gradeOn(sharedCore(Core::kInOrder, 256), prog,
                         Engine::kEvent),
                 FatalError);
}

} // namespace
} // namespace grader
} // namespace assassyn
