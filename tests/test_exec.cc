/**
 * @file
 * Functional-executor tests: the architectural semantics of every
 * opcode class, fault behaviour, control flow, and the slice
 * no-stores rule.
 *
 * OpcodeTable is the independent oracle for the ISA: a hand-computed
 * expected result for every opcode, edge operands included, that both
 * arch::execute and arch::FastForward must reproduce. Both are
 * expanded from isa/opcodes.def, so a wrong semantics expression there
 * would otherwise go unnoticed by comparing one against the other.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "arch/checkpoint.hh"
#include "arch/exec.hh"
#include "arch/fastfwd.hh"
#include "isa/program.hh"

using namespace specslice;
using namespace specslice::isa;
using arch::ExecResult;

namespace
{

constexpr Addr pc0 = 0x10000;

struct ExecFixture : ::testing::Test
{
    arch::RegFile regs;
    arch::MemoryImage mem;

    ExecResult
    run(Instruction i, bool allow_stores = true)
    {
        return arch::execute(i, pc0, regs, mem, allow_stores);
    }

    static Instruction
    rform(Opcode op, RegIndex rc, RegIndex ra, RegIndex rb)
    {
        Instruction i;
        i.op = op;
        i.rc = rc;
        i.ra = ra;
        i.rb = rb;
        return i;
    }

    static Instruction
    iform(Opcode op, RegIndex rc, RegIndex ra, std::int32_t imm)
    {
        Instruction i;
        i.op = op;
        i.rc = rc;
        i.ra = ra;
        i.imm = imm;
        return i;
    }
};

} // namespace

TEST_F(ExecFixture, IntegerAlu)
{
    regs.write(1, 7);
    regs.write(2, 3);
    run(rform(Opcode::Add, 3, 1, 2));
    EXPECT_EQ(regs.read(3), 10u);
    run(rform(Opcode::Sub, 3, 1, 2));
    EXPECT_EQ(regs.read(3), 4u);
    run(rform(Opcode::Mul, 3, 1, 2));
    EXPECT_EQ(regs.read(3), 21u);
    run(rform(Opcode::Div, 3, 1, 2));
    EXPECT_EQ(regs.read(3), 2u);
    run(rform(Opcode::Xor, 3, 1, 2));
    EXPECT_EQ(regs.read(3), 4u);
}

TEST_F(ExecFixture, DivByZeroYieldsZeroNotFault)
{
    regs.write(1, 7);
    regs.write(2, 0);
    auto r = run(rform(Opcode::Div, 3, 1, 2));
    EXPECT_FALSE(r.fault);
    EXPECT_EQ(regs.read(3), 0u);
}

TEST_F(ExecFixture, SignedArithmeticAndShifts)
{
    regs.write(1, static_cast<std::uint64_t>(-8));
    run(iform(Opcode::SraI, 3, 1, 1));
    EXPECT_EQ(static_cast<std::int64_t>(regs.read(3)), -4);
    run(iform(Opcode::SrlI, 3, 1, 60));
    EXPECT_EQ(regs.read(3), 0xfu);
    regs.write(2, 2);
    run(rform(Opcode::CmpLt, 3, 1, 2));  // -8 < 2 signed
    EXPECT_EQ(regs.read(3), 1u);
    run(rform(Opcode::CmpUlt, 3, 1, 2));  // huge unsigned, not <
    EXPECT_EQ(regs.read(3), 0u);
}

TEST_F(ExecFixture, ScaledAdds)
{
    regs.write(1, 5);
    regs.write(2, 100);
    run(rform(Opcode::S4Add, 3, 1, 2));
    EXPECT_EQ(regs.read(3), 120u);
    run(rform(Opcode::S8Add, 3, 1, 2));
    EXPECT_EQ(regs.read(3), 140u);
}

TEST_F(ExecFixture, ConditionalMoves)
{
    regs.write(1, 0);
    regs.write(2, 42);
    regs.write(3, 7);
    run(rform(Opcode::CmovEq, 3, 1, 2));  // ra == 0: move
    EXPECT_EQ(regs.read(3), 42u);
    regs.write(3, 7);
    run(rform(Opcode::CmovNe, 3, 1, 2));  // ra == 0: keep
    EXPECT_EQ(regs.read(3), 7u);
    regs.write(1, static_cast<std::uint64_t>(-1));
    run(rform(Opcode::CmovLt, 3, 1, 2));  // ra < 0: move
    EXPECT_EQ(regs.read(3), 42u);
}

TEST_F(ExecFixture, ZeroRegisterIsImmutable)
{
    regs.write(1, 5);
    run(iform(Opcode::AddI, regZero, 1, 10));
    EXPECT_EQ(regs.read(regZero), 0u);
    // But the result value is still reported (PGIs rely on this).
    auto r = run(iform(Opcode::AddI, regZero, 1, 10));
    EXPECT_TRUE(r.wroteReg);
    EXPECT_EQ(r.value, 15u);
}

TEST_F(ExecFixture, FloatingPoint)
{
    regs.writeF(1, 2.5);
    regs.writeF(2, 1.25);
    run(rform(Opcode::FAdd, 3, 1, 2));
    EXPECT_DOUBLE_EQ(regs.readF(3), 3.75);
    run(rform(Opcode::FMul, 3, 1, 2));
    EXPECT_DOUBLE_EQ(regs.readF(3), 3.125);
    run(rform(Opcode::FCmpLt, 3, 2, 1));
    EXPECT_EQ(regs.read(3), 1u);
    run(rform(Opcode::FCmpLe, 3, 1, 1));
    EXPECT_EQ(regs.read(3), 1u);
    regs.write(4, static_cast<std::uint64_t>(-3));
    run(rform(Opcode::CvtIF, 5, 4, regZero));
    EXPECT_DOUBLE_EQ(regs.readF(5), -3.0);
    run(rform(Opcode::CvtFI, 6, 5, regZero));
    EXPECT_EQ(static_cast<std::int64_t>(regs.read(6)), -3);
}

TEST_F(ExecFixture, LoadsAndStores)
{
    mem.writeQ(0x20000, 0x1122334455667788ull);
    regs.write(1, 0x20000);

    Instruction ld;
    ld.op = Opcode::Ldq;
    ld.rc = 2;
    ld.rb = 1;
    ld.imm = 0;
    auto r = run(ld);
    EXPECT_EQ(regs.read(2), 0x1122334455667788ull);
    EXPECT_EQ(r.memAddr, 0x20000u);

    ld.op = Opcode::Ldl;  // sign-extended 32-bit
    mem.writeL(0x20008, 0x80000001u);
    ld.imm = 8;
    run(ld);
    EXPECT_EQ(static_cast<std::int64_t>(regs.read(2)),
              static_cast<std::int32_t>(0x80000001u));

    ld.op = Opcode::Ldbu;
    run(ld);
    EXPECT_EQ(regs.read(2), 0x01u);

    Instruction st;
    st.op = Opcode::Stq;
    st.ra = 2;
    st.rb = 1;
    st.imm = 16;
    regs.write(2, 99);
    run(st);
    EXPECT_EQ(mem.readQ(0x20010), 99u);
}

TEST_F(ExecFixture, NullPageFaults)
{
    regs.write(1, 8);  // inside the null page
    Instruction ld;
    ld.op = Opcode::Ldq;
    ld.rc = 2;
    ld.rb = 1;
    regs.write(2, 123);
    auto r = run(ld);
    EXPECT_TRUE(r.fault);
    EXPECT_EQ(regs.read(2), 123u);  // destination untouched
}

TEST_F(ExecFixture, SliceStoresFault)
{
    regs.write(1, 0x20000);
    Instruction st;
    st.op = Opcode::Stq;
    st.ra = 2;
    st.rb = 1;
    auto r = run(st, /*allow_stores=*/false);
    EXPECT_TRUE(r.fault);
    EXPECT_EQ(mem.readQ(0x20000), 0u);
}

TEST_F(ExecFixture, ConditionalBranchDirections)
{
    Instruction b;
    b.op = Opcode::Bgt;
    b.ra = 1;
    b.target = 0x12000;

    regs.write(1, 5);
    auto r = run(b);
    EXPECT_TRUE(r.taken);
    EXPECT_EQ(r.nextPc, 0x12000u);

    regs.write(1, 0);
    r = run(b);
    EXPECT_FALSE(r.taken);
    EXPECT_EQ(r.nextPc, pc0 + instBytes);

    b.op = Opcode::Ble;
    r = run(b);
    EXPECT_TRUE(r.taken);

    b.op = Opcode::Blt;
    regs.write(1, static_cast<std::uint64_t>(-1));
    r = run(b);
    EXPECT_TRUE(r.taken);
}

TEST_F(ExecFixture, CallsAndReturns)
{
    Instruction call;
    call.op = Opcode::Call;
    call.rc = regLink;
    call.target = 0x14000;
    auto r = run(call);
    EXPECT_EQ(r.nextPc, 0x14000u);
    EXPECT_EQ(regs.read(regLink), pc0 + instBytes);

    Instruction ret;
    ret.op = Opcode::Ret;
    ret.ra = regLink;
    r = run(ret);
    EXPECT_EQ(r.nextPc, pc0 + instBytes);

    Instruction callr;
    callr.op = Opcode::CallR;
    callr.rb = 5;
    callr.rc = regLink;
    regs.write(5, 0x18000);
    r = run(callr);
    EXPECT_EQ(r.nextPc, 0x18000u);
    EXPECT_EQ(regs.read(regLink), pc0 + instBytes);

    Instruction jmp;
    jmp.op = Opcode::Jmp;
    jmp.ra = 5;
    r = run(jmp);
    EXPECT_EQ(r.nextPc, 0x18000u);
}

TEST_F(ExecFixture, HaltAndSliceEnd)
{
    Instruction h;
    h.op = Opcode::Halt;
    EXPECT_TRUE(run(h).halted);
    Instruction s;
    s.op = Opcode::SliceEnd;
    EXPECT_TRUE(run(s).sliceEnded);
}

TEST(MemImgTest, LittleEndianAndSparse)
{
    arch::MemoryImage mem;
    mem.writeQ(0x5000, 0x0807060504030201ull);
    EXPECT_EQ(mem.readB(0x5000), 0x01u);
    EXPECT_EQ(mem.readB(0x5007), 0x08u);
    EXPECT_EQ(mem.readL(0x5000), 0x04030201u);
    // Unwritten memory reads zero.
    EXPECT_EQ(mem.readQ(0x999000), 0u);
    // Cross-page access works.
    mem.writeQ(0x5ffc, 0xaabbccddeeff1122ull);
    EXPECT_EQ(mem.readQ(0x5ffc), 0xaabbccddeeff1122ull);
}

TEST(MemImgTest, FaultPredicate)
{
    EXPECT_TRUE(arch::MemoryImage::faults(0));
    EXPECT_TRUE(arch::MemoryImage::faults(4095));
    EXPECT_FALSE(arch::MemoryImage::faults(4096));
}

TEST(MemImgTest, DoubleRoundTrip)
{
    arch::MemoryImage mem;
    mem.writeF(0x6000, 3.14159);
    EXPECT_DOUBLE_EQ(mem.readF(0x6000), 3.14159);
}

namespace
{

// Every row runs the instruction {op, ra = r1, rb = r2, rc = r3 (or
// rcReg), imm, target = takenPc} at pc0, followed by two halts, with
// r1 = a, r2 = b, r3 = oldRc and 16 bytes of seeded data memory.
constexpr Addr fallThrough = pc0 + 8;
constexpr Addr takenPc = pc0 + 16;
constexpr std::uint64_t oldRc = 0x5a5a5a5a5a5a5a5aull;
constexpr Addr dataAddr = 0x20000;
// Bytes 80 90 a0 b0 c0 d0 e0 f0 | 00 01 02 03 04 05 06 07.
constexpr std::uint64_t seed0 = 0xf0e0d0c0b0a09080ull;
constexpr std::uint64_t seed1 = 0x0706050403020100ull;

constexpr std::uint64_t minI64 = 0x8000000000000000ull;
constexpr std::uint64_t allOnes = ~std::uint64_t{0};
constexpr std::uint64_t neg(std::uint64_t v) { return 0 - v; }

// IEEE double bit patterns.
constexpr std::uint64_t fp1_25 = 0x3ff4000000000000ull;
constexpr std::uint64_t fp2_5 = 0x4004000000000000ull;
constexpr std::uint64_t fp3_125 = 0x4009000000000000ull;
constexpr std::uint64_t fp3_75 = 0x400e000000000000ull;
constexpr std::uint64_t fpNeg3 = 0xc008000000000000ull;
constexpr std::uint64_t fpNeg3_75 = 0xc00e000000000000ull;
constexpr std::uint64_t fpNeg2p63 = 0xc3e0000000000000ull;
constexpr std::uint64_t fp2p63 = 0x43e0000000000000ull;
constexpr std::uint64_t fp1e300 = 0x7e37e43c8800759cull;
constexpr std::uint64_t fpNaN = 0x7ff8000000000000ull;
constexpr std::uint64_t fpInf = 0x7ff0000000000000ull;
constexpr std::uint64_t fpNegInf = 0xfff0000000000000ull;
constexpr std::uint64_t fpNegZero = 0x8000000000000000ull;

struct Row
{
    Opcode op;
    std::uint64_t a = 0;          ///< r1, the ra operand
    std::uint64_t b = 0;          ///< r2, the rb operand
    std::int32_t imm = 0;
    std::uint64_t rc = oldRc;     ///< expected rc register afterwards
    Addr next = fallThrough;      ///< expected next PC
    bool fault = false;
    std::uint64_t mem0 = seed0;   ///< expected qword at dataAddr
    std::uint64_t mem1 = seed1;   ///< expected qword at dataAddr + 8
    RegIndex rcReg = 3;
};

using enum Opcode;

const std::vector<Row> rows = {
    // Integer ALU, register form. Shift counts use the low 6 bits.
    {.op = Add, .a = 5, .b = 7, .rc = 12},
    {.op = Add, .a = allOnes, .b = 2, .rc = 1},
    {.op = Sub, .a = 5, .b = 7, .rc = neg(2)},
    {.op = Sub, .a = minI64, .b = 1, .rc = 0x7fffffffffffffffull},
    {.op = And, .a = 0xf0f0, .b = 0xff00, .rc = 0xf000},
    {.op = Or, .a = 0xf0f0, .b = 0x0f00, .rc = 0xfff0},
    {.op = Xor, .a = 0xf0f0, .b = 0xff00, .rc = 0x0ff0},
    {.op = Sll, .a = 1, .b = 63, .rc = minI64},
    {.op = Sll, .a = 1, .b = 64, .rc = 1},
    {.op = Sll, .a = 1, .b = allOnes, .rc = minI64},
    {.op = Srl, .a = minI64, .b = 63, .rc = 1},
    {.op = Srl, .a = minI64, .b = 64, .rc = minI64},
    {.op = Srl, .a = minI64, .b = allOnes, .rc = 1},
    {.op = Sra, .a = minI64, .b = 63, .rc = allOnes},
    {.op = Sra, .a = minI64, .b = 64, .rc = minI64},
    {.op = Sra, .a = minI64, .b = allOnes, .rc = allOnes},
    {.op = Sra, .a = 0x4000000000000000ull, .b = 62, .rc = 1},
    {.op = CmpEq, .a = 5, .b = 5, .rc = 1},
    {.op = CmpEq, .a = 5, .b = 6, .rc = 0},
    {.op = CmpLt, .a = minI64, .b = 0, .rc = 1},
    {.op = CmpLt, .a = 0, .b = minI64, .rc = 0},
    {.op = CmpLt, .a = 7, .b = 7, .rc = 0},
    {.op = CmpLe, .a = 7, .b = 7, .rc = 1},
    {.op = CmpLe, .a = 8, .b = 7, .rc = 0},
    {.op = CmpLe, .a = allOnes, .b = 0, .rc = 1},
    {.op = CmpUlt, .a = minI64, .b = 1, .rc = 0},
    {.op = CmpUlt, .a = 1, .b = minI64, .rc = 1},
    {.op = S4Add, .a = 5, .b = 100, .rc = 120},
    {.op = S4Add, .a = 0x4000000000000000ull, .b = 1, .rc = 1},
    {.op = S8Add, .a = 5, .b = 100, .rc = 140},
    // A not-taken cmov leaves rc untouched.
    {.op = CmovEq, .a = 0, .b = 42, .rc = 42},
    {.op = CmovEq, .a = 1, .b = 42},
    {.op = CmovNe, .a = 1, .b = 42, .rc = 42},
    {.op = CmovNe, .a = 0, .b = 42},
    {.op = CmovLt, .a = minI64, .b = 42, .rc = 42},
    {.op = CmovLt, .a = 0, .b = 42},

    // Integer ALU, immediate form: imm is sign-extended.
    {.op = AddI, .a = 5, .imm = -7, .rc = neg(2)},
    {.op = SubI, .a = 5, .imm = -7, .rc = 12},
    {.op = AndI, .a = allOnes, .imm = -16, .rc = 0xfffffffffffffff0ull},
    {.op = AndI, .a = 0x123456789ull, .imm = 0xff, .rc = 0x89},
    {.op = OrI, .a = 0x100000000ull, .imm = -1, .rc = allOnes},
    {.op = OrI, .a = 0x1000, .imm = 0x0f, .rc = 0x100f},
    {.op = XorI, .a = 0xff, .imm = -1, .rc = 0xffffffffffffff00ull},
    {.op = SllI, .a = 1, .imm = 63, .rc = minI64},
    {.op = SllI, .a = 1, .imm = 64, .rc = 1},
    {.op = SllI, .a = 1, .imm = -1, .rc = minI64},
    {.op = SrlI, .a = minI64, .imm = 63, .rc = 1},
    {.op = SrlI, .a = minI64, .imm = 64, .rc = minI64},
    {.op = SrlI, .a = minI64, .imm = -1, .rc = 1},
    {.op = SraI, .a = minI64, .imm = 63, .rc = allOnes},
    {.op = SraI, .a = minI64, .imm = 64, .rc = minI64},
    {.op = SraI, .a = minI64, .imm = -1, .rc = allOnes},
    {.op = SraI, .a = neg(8), .imm = 1, .rc = neg(4)},
    {.op = CmpEqI, .a = allOnes, .imm = -1, .rc = 1},
    {.op = CmpEqI, .a = 0xffffffffull, .imm = -1, .rc = 0},
    {.op = CmpLtI, .a = neg(5), .imm = -4, .rc = 1},
    {.op = CmpLtI, .a = minI64, .imm = INT32_MIN, .rc = 1},
    {.op = CmpLtI, .a = 0, .imm = 0, .rc = 0},
    {.op = CmpLeI, .a = neg(4), .imm = -4, .rc = 1},
    {.op = CmpLeI, .a = neg(3), .imm = -4, .rc = 0},
    {.op = CmpUltI, .a = 5, .imm = -1, .rc = 1},
    {.op = CmpUltI, .a = allOnes, .imm = -1, .rc = 0},
    // ldi ignores ra (r1 = 99 here).
    {.op = Ldi, .a = 99, .imm = -2, .rc = neg(2)},
    {.op = Ldi, .imm = INT32_MAX, .rc = 0x7fffffff},

    // Complex integer. Division truncates toward zero, x / 0 is 0, and
    // INT64_MIN / -1 wraps instead of trapping.
    {.op = Mul, .a = neg(3), .b = 7, .rc = neg(21)},
    {.op = Mul, .a = 0x100000000ull, .b = 0x100000000ull, .rc = 0},
    {.op = Div, .a = 7, .b = 2, .rc = 3},
    {.op = Div, .a = neg(7), .b = 2, .rc = neg(3)},
    {.op = Div, .a = 7, .b = 0, .rc = 0},
    {.op = Div, .a = 7, .b = allOnes, .rc = neg(7)},
    {.op = Div, .a = minI64, .b = allOnes, .rc = minI64},

    // Floating point. Compares are false on NaN; cvtfi of NaN, an
    // infinity or an out-of-range value gives 0x8000000000000000.
    {.op = FAdd, .a = fp2_5, .b = fp1_25, .rc = fp3_75},
    {.op = FSub, .a = fp2_5, .b = fp1_25, .rc = fp1_25},
    {.op = FMul, .a = fp2_5, .b = fp1_25, .rc = fp3_125},
    {.op = FCmpLt, .a = fp1_25, .b = fp2_5, .rc = 1},
    {.op = FCmpLt, .a = fpNaN, .b = fp1_25, .rc = 0},
    {.op = FCmpLt, .a = fp1_25, .b = fpNaN, .rc = 0},
    {.op = FCmpLe, .a = fp2_5, .b = fp2_5, .rc = 1},
    {.op = FCmpLe, .a = fpNaN, .b = fpNaN, .rc = 0},
    {.op = FCmpEq, .a = fp2_5, .b = fp2_5, .rc = 1},
    {.op = FCmpEq, .a = fpNaN, .b = fpNaN, .rc = 0},
    {.op = FCmpEq, .a = fpNegZero, .b = 0, .rc = 1},
    {.op = CvtIF, .a = neg(3), .rc = fpNeg3},
    {.op = CvtIF, .a = minI64, .rc = fpNeg2p63},
    {.op = CvtFI, .a = fpNeg3_75, .rc = neg(3)},
    {.op = CvtFI, .a = fpNeg2p63, .rc = minI64},
    {.op = CvtFI, .a = fpNaN, .rc = minI64},
    {.op = CvtFI, .a = fpInf, .rc = minI64},
    {.op = CvtFI, .a = fpNegInf, .rc = minI64},
    {.op = CvtFI, .a = fp1e300, .rc = minI64},
    {.op = CvtFI, .a = fp2p63, .rc = minI64},

    // Memory at rb + imm, little-endian, any alignment. A null-page
    // address faults and changes nothing.
    {.op = Ldq, .b = dataAddr, .rc = seed0},
    {.op = Ldq, .b = dataAddr + 16, .imm = -16, .rc = seed0},
    {.op = Ldq, .b = dataAddr, .imm = 3, .rc = 0x020100f0e0d0c0b0ull},
    {.op = Ldq, .b = 8, .fault = true},
    {.op = Ldq, .b = 0x1000, .imm = -8, .fault = true},
    {.op = Ldl, .b = dataAddr, .rc = 0xffffffffb0a09080ull},
    {.op = Ldl, .b = dataAddr, .imm = 8, .rc = 0x03020100},
    {.op = Ldl, .b = dataAddr, .imm = 6, .rc = 0x0100f0e0},
    {.op = Ldl, .b = 0, .fault = true},
    {.op = Ldbu, .b = dataAddr, .imm = 7, .rc = 0xf0},
    {.op = Ldbu, .b = dataAddr, .imm = 9, .rc = 0x01},
    {.op = Ldbu, .b = 0xfff, .fault = true},
    {.op = Stq, .a = 0x1122334455667788ull, .b = dataAddr,
     .mem0 = 0x1122334455667788ull},
    {.op = Stq, .a = 0x1122334455667788ull, .b = dataAddr, .imm = 4,
     .mem0 = 0x55667788b0a09080ull, .mem1 = 0x0706050411223344ull},
    {.op = Stq, .a = 0x1122334455667788ull, .b = 16, .fault = true},
    {.op = Stl, .a = 0x1122334455667788ull, .b = dataAddr,
     .mem0 = 0xf0e0d0c055667788ull},
    {.op = Stl, .a = 1, .b = 0x10, .fault = true},
    {.op = Stb, .a = 0x1122334455667788ull, .b = dataAddr, .imm = 9,
     .mem1 = 0x0706050403028800ull},
    {.op = Stb, .a = 1, .b = 0x1000, .imm = -1, .fault = true},
    // A prefetch writes no register, but faults on the null page.
    {.op = Prefetch, .b = dataAddr, .imm = 3},
    {.op = Prefetch, .b = 0x10, .fault = true},

    // Control. Conditional branches test ra (r1) against zero.
    {.op = Beq, .a = 0, .next = takenPc},
    {.op = Beq, .a = 1},
    {.op = Bne, .a = minI64, .next = takenPc},
    {.op = Bne, .a = 0},
    {.op = Blt, .a = minI64, .next = takenPc},
    {.op = Blt, .a = 0},
    {.op = Ble, .a = 0, .next = takenPc},
    {.op = Ble, .a = 1},
    {.op = Bgt, .a = 1, .next = takenPc},
    {.op = Bgt, .a = 0},
    {.op = Bgt, .a = minI64},
    {.op = Bge, .a = 0, .next = takenPc},
    {.op = Bge, .a = allOnes},
    {.op = Br, .next = takenPc},
    {.op = Call, .rc = fallThrough, .next = takenPc},
    {.op = Jmp, .a = takenPc, .next = takenPc},
    {.op = Jmp, .a = 0x40000, .next = 0x40000},
    {.op = CallR, .b = takenPc, .rc = fallThrough, .next = takenPc},
    // rc == rb: the target is read before the link is written.
    {.op = CallR, .b = takenPc, .rc = fallThrough, .next = takenPc,
     .rcReg = 2},
    {.op = Ret, .a = takenPc, .next = takenPc},

    // Misc. halt stops before its successor; slice_end is inert
    // outside a slice.
    {.op = Nop},
    {.op = Halt},
    {.op = SliceEnd},
};

std::string
describe(const Row &r)
{
    std::ostringstream os;
    os << opTraits(r.op).mnemonic << std::hex << " a=0x" << r.a
       << " b=0x" << r.b << std::dec << " imm=" << r.imm;
    return os.str();
}

Instruction
instOf(const Row &r)
{
    Instruction i;
    i.op = r.op;
    i.ra = 1;
    i.rb = 2;
    i.rc = r.rcReg;
    i.imm = r.imm;
    if (opTraits(r.op).isCondBranch || opTraits(r.op).isUncondDirect)
        i.target = takenPc;
    return i;
}

/** The architectural state every row starts from. */
void
seed(arch::RegFile &regs, arch::MemoryImage &mem, const Row &r)
{
    regs.write(1, r.a);
    regs.write(2, r.b);
    regs.write(3, oldRc);
    mem.writeQ(dataAddr, seed0);
    mem.writeQ(dataAddr + 8, seed1);
}

void
expectState(const Row &r, const arch::RegFile &regs,
            const arch::MemoryImage &mem)
{
    EXPECT_EQ(regs.read(r.rcReg), r.rc) << "rc";
    EXPECT_EQ(mem.readQ(dataAddr), r.mem0) << "memory";
    EXPECT_EQ(mem.readQ(dataAddr + 8), r.mem1) << "memory";
}

} // namespace

TEST(OpcodeTable, CoversEveryOpcode)
{
    for (unsigned op = 0; op < static_cast<unsigned>(NumOpcodes); ++op) {
        bool found = false;
        for (const Row &r : rows)
            found |= static_cast<unsigned>(r.op) == op;
        EXPECT_TRUE(found) << "no expected-result row for "
                           << opTraits(static_cast<Opcode>(op)).mnemonic;
    }
}

TEST(OpcodeTable, ExecuteMatchesEveryRow)
{
    for (const Row &r : rows) {
        SCOPED_TRACE(describe(r));
        arch::RegFile regs;
        arch::MemoryImage mem;
        seed(regs, mem, r);
        const ExecResult res = arch::execute(instOf(r), pc0, regs, mem);
        EXPECT_EQ(res.fault, r.fault);
        EXPECT_EQ(res.halted, r.op == Halt);
        if (!r.fault) {
            EXPECT_EQ(res.nextPc, r.next);
        }
        expectState(r, regs, mem);
    }
}

TEST(OpcodeTable, FastForwardMatchesEveryRow)
{
    Instruction halt;
    halt.op = Halt;
    for (const Row &r : rows) {
        SCOPED_TRACE(describe(r));
        Program prog;
        CodeSection sec;
        sec.base = pc0;
        sec.code = {instOf(r), halt, halt};
        prog.addSection(std::move(sec));

        arch::FastForward ff(prog);
        arch::Checkpoint start;
        start.programFingerprint = ff.programFingerprint();
        start.pc = pc0;
        seed(start.regs, start.mem, r);
        ff.restore(start);
        const arch::FfStop stop = ff.advance(10);

        // The row's instruction stops the run itself (halt, fault),
        // reaches one of the two halts, or leaves the program.
        if (r.op == Halt || r.fault) {
            EXPECT_EQ(stop, r.fault ? arch::FfStop::Fault
                                    : arch::FfStop::Halted);
            EXPECT_EQ(ff.pc(), pc0);
            EXPECT_EQ(ff.executed(), 1u);
        } else if (r.next == fallThrough || r.next == takenPc) {
            EXPECT_EQ(stop, arch::FfStop::Halted);
            EXPECT_EQ(ff.pc(), r.next);
            EXPECT_EQ(ff.executed(), 2u);
        } else {
            EXPECT_EQ(stop, arch::FfStop::UnmappedPc);
            EXPECT_EQ(ff.pc(), r.next);
            EXPECT_EQ(ff.executed(), 1u);
        }
        expectState(r, ff.regs(), ff.mem());
    }
}
