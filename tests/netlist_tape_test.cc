/**
 * @file
 * The netlist cell tape (rtl::Netlist::tape()) against the shared
 * operator semantics.
 *
 * One DSL rig per cell kind — every BinOpcode x signedness, the four
 * unary ops, the four casts, slice, concat, mux and an out-of-range
 * array read — runs at the widths where the tape's precomputed masks
 * and sign-extension shifts hit their extremes (1, 7, 32, 33, 63, 64),
 * over edge operands including shift amounts 63, 64 and 65. Every
 * result must equal the support/ops.h reference and the event
 * simulator's. A last test asserts that these rigs' tapes together use
 * every tape opcode, so an opcode added later cannot go untested.
 *
 * The netlist engine's work counters (NetlistSim::stats()) are pinned
 * here too: exact on a rerun and consistent with the cone count.
 */
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/compiler/pass.h"
#include "core/dsl/builder.h"
#include "designs/cpu.h"
#include "isa/workloads.h"
#include "rtl/netlist.h"
#include "rtl/netlist_sim.h"
#include "sim/simulator.h"
#include "support/ops.h"

namespace assassyn {
namespace {

using namespace dsl;

const unsigned kWidths[] = {1, 7, 32, 33, 63, 64};

enum class Kind {
    kBin,
    kUn,
    kZExt,
    kTrunc,
    kBitcast,
    kSExt,
    kSlice,
    kConcat,
    kMux,
    kArrayRead,
};

struct Rig {
    std::string name;
    Kind kind;
    BinOpcode bin = BinOpcode::kAdd;
    UnOpcode un = UnOpcode::kNot;
    bool sgn = false;
};

std::vector<Rig>
allRigs()
{
    const std::pair<const char *, BinOpcode> bins[] = {
        {"add", BinOpcode::kAdd}, {"sub", BinOpcode::kSub},
        {"mul", BinOpcode::kMul}, {"div", BinOpcode::kDiv},
        {"mod", BinOpcode::kMod}, {"and", BinOpcode::kAnd},
        {"or", BinOpcode::kOr},   {"xor", BinOpcode::kXor},
        {"shl", BinOpcode::kShl}, {"shr", BinOpcode::kShr},
        {"eq", BinOpcode::kEq},   {"ne", BinOpcode::kNe},
        {"lt", BinOpcode::kLt},   {"le", BinOpcode::kLe},
        {"gt", BinOpcode::kGt},   {"ge", BinOpcode::kGe},
    };
    std::vector<Rig> rigs;
    for (const auto &[name, op] : bins)
        for (bool sgn : {false, true})
            rigs.push_back({std::string(name) + (sgn ? "_s" : "_u"),
                            Kind::kBin, op, UnOpcode::kNot, sgn});
    const std::pair<const char *, UnOpcode> uns[] = {
        {"not", UnOpcode::kNot},
        {"neg", UnOpcode::kNeg},
        {"redor", UnOpcode::kRedOr},
        {"redand", UnOpcode::kRedAnd},
    };
    for (const auto &[name, op] : uns)
        rigs.push_back({name, Kind::kUn, BinOpcode::kAdd, op});
    rigs.push_back({"zext", Kind::kZExt});
    rigs.push_back({"trunc", Kind::kTrunc});
    rigs.push_back({"bitcast", Kind::kBitcast});
    rigs.push_back({"sext", Kind::kSExt, BinOpcode::kAdd, UnOpcode::kNot,
                    true});
    rigs.push_back({"slice", Kind::kSlice});
    rigs.push_back({"concat", Kind::kConcat});
    rigs.push_back({"mux", Kind::kMux});
    rigs.push_back({"array_read_oob", Kind::kArrayRead});
    return rigs;
}

bool
isShift(const Rig &rig)
{
    return rig.kind == Kind::kBin && (rig.bin == BinOpcode::kShl ||
                                      rig.bin == BinOpcode::kShr);
}

bool
isCompare(BinOpcode op)
{
    switch (op) {
      case BinOpcode::kEq: case BinOpcode::kNe: case BinOpcode::kLt:
      case BinOpcode::kLe: case BinOpcode::kGt: case BinOpcode::kGe:
        return true;
      default:
        return false;
    }
}

/** Widths of the rig's operands and result at width @p w. */
struct Shape {
    unsigned a_bits, b_bits, out_bits;
    unsigned hi = 0, lo = 0; ///< slice bounds
};

Shape
shapeOf(const Rig &rig, unsigned w)
{
    switch (rig.kind) {
      case Kind::kBin:
        return {w, isShift(rig) ? 8u : w, isCompare(rig.bin) ? 1u : w};
      case Kind::kUn: {
        bool red = rig.un == UnOpcode::kRedOr || rig.un == UnOpcode::kRedAnd;
        return {w, 1, red ? 1u : w};
      }
      case Kind::kZExt:
      case Kind::kSExt:
        return {w, 1, std::min(64u, w + 5)};
      case Kind::kTrunc:
        return {w, 1, w > 3 ? w - 3 : 1u};
      case Kind::kBitcast:
        return {w, 1, w};
      case Kind::kSlice:
        return {w, 1, w - w / 3, w - 1, w / 3};
      case Kind::kConcat: {
        // {a, b}: lsb b takes half the width, at least one bit each.
        unsigned lsb = std::max(1u, w / 2);
        unsigned msb = std::max(1u, w - lsb);
        return {msb, lsb, msb + lsb};
      }
      case Kind::kMux:
        return {w, w, w};
      case Kind::kArrayRead:
        return {w, 1, w};
    }
    return {w, w, w};
}

/** Edge operands of a @p bits wide value. */
std::vector<uint64_t>
edgeValues(unsigned bits)
{
    const uint64_t mask = maskBits(bits);
    const uint64_t min_val = uint64_t(1) << (bits - 1);
    std::set<uint64_t> vals;
    const uint64_t raw[] = {0, 1, 2, mask, min_val, min_val - 1,
                            min_val | 1, 0x5a5a5a5a5a5a5a5aull,
                            0xf0e1d2c3b4a59687ull};
    for (uint64_t v : raw)
        vals.insert(v & mask);
    return {vals.begin(), vals.end()};
}

/** The (a, b, c) operand vectors of one rig at one width. */
struct Vectors {
    std::vector<uint64_t> a, b, c;
};

Vectors
vectorsOf(const Rig &rig, const Shape &sh)
{
    Vectors v;
    std::vector<uint64_t> as = edgeValues(sh.a_bits);
    std::vector<uint64_t> bs;
    if (isShift(rig)) {
        unsigned w = sh.a_bits;
        bs = {0, 1, w - 1, w, w + 1, 63, 64, 65, 255};
    } else if (rig.kind == Kind::kBin || rig.kind == Kind::kConcat ||
               rig.kind == Kind::kMux) {
        bs = edgeValues(sh.b_bits);
    } else {
        bs = {0};
    }
    for (uint64_t a : as) {
        for (uint64_t b : bs) {
            v.a.push_back(a);
            v.b.push_back(b);
            v.c.push_back(v.c.size() & 1);
        }
    }
    return v;
}

/** Contents of the array read by the kArrayRead rig: indices >= its
 *  size (every edge index but 0 at width 1) read 0. */
std::vector<uint64_t>
readTable(unsigned w)
{
    size_t n = w == 1 ? 1 : 5;
    std::vector<uint64_t> t;
    for (size_t i = 0; i < n; ++i)
        t.push_back(truncate(0x9e3779b97f4a7c15ull * (i + 1), w));
    return t;
}

uint64_t
reference(const Rig &rig, const Shape &sh, uint64_t a, uint64_t b,
          uint64_t c, unsigned w)
{
    switch (rig.kind) {
      case Kind::kBin:
        return ops::evalBin(rig.bin, a, b, sh.a_bits, rig.sgn, sh.out_bits);
      case Kind::kUn:
        return ops::evalUn(rig.un, a, sh.a_bits, sh.out_bits);
      case Kind::kZExt:
        return ops::evalCast(Cast::Mode::kZExt, a, sh.a_bits, sh.out_bits);
      case Kind::kTrunc:
        return ops::evalCast(Cast::Mode::kTrunc, a, sh.a_bits, sh.out_bits);
      case Kind::kBitcast:
        return ops::evalCast(Cast::Mode::kBitcast, a, sh.a_bits,
                             sh.out_bits);
      case Kind::kSExt:
        return ops::evalCast(Cast::Mode::kSExt, a, sh.a_bits, sh.out_bits);
      case Kind::kSlice:
        return ops::evalSlice(a, sh.hi, sh.lo);
      case Kind::kConcat:
        return ops::evalConcat(a, b, sh.b_bits, sh.out_bits);
      case Kind::kMux:
        return c ? a : b;
      case Kind::kArrayRead: {
        std::vector<uint64_t> t = readTable(w);
        return a < t.size() ? t[a] : 0;
      }
    }
    return 0;
}

/** One elaborated rig: inputs in ROMs, one result per cycle. */
struct Built {
    std::unique_ptr<System> sys;
    RegArray *out = nullptr;
    Vectors vec;
    Shape shape;
};

Built
buildRig(const Rig &rig, unsigned w)
{
    Built bt;
    bt.shape = shapeOf(rig, w);
    const Shape &sh = bt.shape;
    bt.vec = vectorsOf(rig, sh);
    const size_t n = bt.vec.a.size();
    auto ty = [&](unsigned bits) {
        return rig.sgn ? intType(bits) : uintType(bits);
    };

    SysBuilder sb("tape_" + rig.name);
    Arr rom_a = sb.mem("rom_a", ty(sh.a_bits), n, bt.vec.a);
    Arr rom_b = sb.mem("rom_b", isShift(rig) ? uintType(8) : ty(sh.b_bits),
                       n, bt.vec.b);
    Arr rom_c = sb.mem("rom_c", uintType(1), n, bt.vec.c);
    std::vector<uint64_t> table = readTable(w);
    Arr data = sb.mem("data", uintType(w), table.size(), table);
    Arr out = sb.arr("out", uintType(sh.out_bits), n);
    Reg idx = sb.reg("idx", uintType(8));
    Stage d = sb.driver();
    {
        StageScope scope(d);
        Val i = idx.read();
        Val a = rom_a.read(i);
        Val b = rom_b.read(i);
        Val c = rom_c.read(i);
        Val r;
        switch (rig.kind) {
          case Kind::kBin:
            switch (rig.bin) {
              case BinOpcode::kAdd: r = a + b; break;
              case BinOpcode::kSub: r = a - b; break;
              case BinOpcode::kMul: r = a * b; break;
              case BinOpcode::kDiv: r = a / b; break;
              case BinOpcode::kMod: r = a % b; break;
              case BinOpcode::kAnd: r = a & b; break;
              case BinOpcode::kOr:  r = a | b; break;
              case BinOpcode::kXor: r = a ^ b; break;
              case BinOpcode::kShl: r = a << b; break;
              case BinOpcode::kShr: r = a >> b; break;
              case BinOpcode::kEq:  r = a == b; break;
              case BinOpcode::kNe:  r = a != b; break;
              case BinOpcode::kLt:  r = a < b; break;
              case BinOpcode::kLe:  r = a <= b; break;
              case BinOpcode::kGt:  r = a > b; break;
              case BinOpcode::kGe:  r = a >= b; break;
            }
            break;
          case Kind::kUn:
            switch (rig.un) {
              case UnOpcode::kNot:    r = ~a; break;
              case UnOpcode::kNeg:    r = -a; break;
              case UnOpcode::kRedOr:  r = a.orReduce(); break;
              case UnOpcode::kRedAnd: r = a.andReduce(); break;
            }
            break;
          case Kind::kZExt:    r = a.zext(sh.out_bits); break;
          case Kind::kTrunc:   r = a.trunc(sh.out_bits); break;
          case Kind::kBitcast: r = a.as(intType(w)); break;
          case Kind::kSExt:    r = a.sext(sh.out_bits); break;
          case Kind::kSlice:   r = a.slice(sh.hi, sh.lo); break;
          case Kind::kConcat:  r = a.concat(b); break;
          case Kind::kMux:     r = select(c, a, b); break;
          case Kind::kArrayRead: r = data.read(a); break;
        }
        EXPECT_EQ(r.bits(), sh.out_bits) << rig.name;
        out.write(i, r.as(uintType(sh.out_bits)));
        idx.write(i + 1);
        when(i == uint64_t(n - 1), [&] { finish(); });
    }
    compile(sb.sys());
    bt.out = out.array();
    bt.sys = sb.take();
    return bt;
}

class NetlistTapeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(NetlistTapeTest, MatchesOpsAndEventEngine)
{
    const Rig rig = allRigs()[GetParam()];
    for (unsigned w : kWidths) {
        SCOPED_TRACE(rig.name + " at width " + std::to_string(w));
        Built bt = buildRig(rig, w);
        const size_t n = bt.vec.a.size();

        sim::Simulator esim(*bt.sys);
        esim.run(n + 2);
        ASSERT_TRUE(esim.finished());
        rtl::Netlist nl(*bt.sys);
        rtl::NetlistSim rsim(nl);
        rsim.run(n + 2);
        ASSERT_TRUE(rsim.finished());

        for (size_t i = 0; i < n; ++i) {
            uint64_t a = bt.vec.a[i], b = bt.vec.b[i], c = bt.vec.c[i];
            uint64_t want = reference(rig, bt.shape, a, b, c, w);
            EXPECT_EQ(rsim.readArray(bt.out, i), want)
                << "a=" << a << " b=" << b << " c=" << c;
            EXPECT_EQ(esim.readArray(bt.out, i), want)
                << "(event) a=" << a << " b=" << b << " c=" << c;
        }
    }
}

std::string
rigName(const ::testing::TestParamInfo<size_t> &info)
{
    return allRigs()[info.param].name;
}

INSTANTIATE_TEST_SUITE_P(Rigs, NetlistTapeTest,
                         ::testing::Range(size_t(0), allRigs().size()),
                         rigName);

TEST(NetlistTapeCoverage, RigsUseEveryTapeOpcode)
{
    std::set<rtl::TapeOp> used;
    for (const Rig &rig : allRigs()) {
        for (unsigned w : kWidths) {
            Built bt = buildRig(rig, w);
            rtl::Netlist nl(*bt.sys);
            ASSERT_EQ(nl.tape().size(), nl.cells().size());
            for (const rtl::TapeStep &s : nl.tape())
                used.insert(s.op);
        }
    }
    for (unsigned op = 0; op < unsigned(rtl::TapeOp::kCount); ++op)
        EXPECT_TRUE(used.count(rtl::TapeOp(op)))
            << "tape opcode " << op << " is not exercised by any rig";
}

/** A netlist engine's counters after running qsort to completion. */
rtl::NetlistStats
qsortStats(const rtl::Netlist &nl)
{
    rtl::NetlistSim rsim(nl, false);
    EXPECT_EQ(rsim.run(1'000'000).status, sim::RunStatus::kFinished);
    EXPECT_EQ(rsim.stats().cycles, rsim.cycle());
    return rsim.stats();
}

TEST(NetlistStatsTest, CountersAreExactAndAccountForEveryCone)
{
    auto image = isa::buildMemoryImage(isa::workload("qsort"));
    auto cpu = designs::buildCpu(designs::BranchPolicy::kTaken, image);
    rtl::Netlist nl(*cpu.sys);
    ASSERT_FALSE(nl.cones().empty());

    rtl::NetlistStats first = qsortStats(nl);
    rtl::NetlistStats again = qsortStats(nl);
    EXPECT_EQ(first.cycles, again.cycles);
    EXPECT_EQ(first.cones_evaluated, again.cones_evaluated);
    EXPECT_EQ(first.cones_skipped, again.cones_skipped);
    EXPECT_EQ(first.cells_evaluated, again.cells_evaluated);

    EXPECT_EQ(first.cones_evaluated + first.cones_skipped,
              first.cycles * nl.cones().size());
    EXPECT_GT(first.cones_skipped, 0u) << "activity gating never fired";
    EXPECT_GT(first.cells_evaluated, 0u);
    EXPECT_LT(first.cells_evaluated, first.cycles * nl.tape().size());
}

TEST(NetlistStatsTest, RunsSplitAcrossCallsCountTheSame)
{
    auto image = isa::buildMemoryImage(isa::workload("vvadd"));
    auto cpu = designs::buildCpu(designs::BranchPolicy::kTaken, image);
    rtl::Netlist nl(*cpu.sys);

    rtl::NetlistSim whole(nl, false);
    ASSERT_EQ(whole.run(1'000'000).status, sim::RunStatus::kFinished);
    rtl::NetlistSim split(nl, false);
    split.run(500);
    ASSERT_EQ(split.run(1'000'000).status, sim::RunStatus::kFinished);
    EXPECT_EQ(split.stats().cycles, whole.cycle());
    EXPECT_EQ(split.stats().cycles, whole.stats().cycles);
    EXPECT_EQ(split.stats().cones_evaluated, whole.stats().cones_evaluated);
    EXPECT_EQ(split.stats().cones_skipped, whole.stats().cones_skipped);
    EXPECT_EQ(split.stats().cells_evaluated, whole.stats().cells_evaluated);
}

} // namespace
} // namespace assassyn
