#include "arch/exec.hh"

#include "common/bitutils.hh"
#include "common/logging.hh"
#include "isa/semantics.hh"

namespace specslice::arch
{

using isa::Opcode;

/*
 * One case per opcodes.def row; the row's kind picks the skeleton
 * below and its sem expression fills it in. a/b/sa/sb/imm are the
 * names the expressions are written against.
 */
#define EXEC_AluRR(bytes, sgn, sem) writeRc(sem)
#define EXEC_AluR EXEC_AluRR
#define EXEC_AluRI EXEC_AluRR
#define EXEC_AluI EXEC_AluRR
#define EXEC_Cmov(bytes, sgn, sem)                                    \
    if (sem)                                                          \
        writeRc(b)
#define EXEC_Load(bytes, sgn, sem)                                    \
    if (access(true))                                                 \
        writeRc(isa::extendLoad(mem.read(res.memAddr, bytes), bytes, sgn))
#define EXEC_Prefetch(bytes, sgn, sem) access(true)
#define EXEC_Store(bytes, sgn, sem)                                   \
    if (access(allow_stores)) {                                       \
        mem.write(res.memAddr, a, bytes);                             \
        res.value = a & mask(8 * bytes);                              \
    }
#define EXEC_CondBr(bytes, sgn, sem) res.taken = (sem)
#define EXEC_Br(bytes, sgn, sem) res.taken = true
#define EXEC_Call(bytes, sgn, sem)                                    \
    res.taken = true;                                                 \
    writeRc(pc + isa::instBytes)
#define EXEC_Jmp(bytes, sgn, sem)                                     \
    res.taken = true;                                                 \
    res.nextPc = a
#define EXEC_Ret EXEC_Jmp
#define EXEC_CallR(bytes, sgn, sem)                                   \
    res.taken = true;                                                 \
    res.nextPc = b;                                                   \
    writeRc(pc + isa::instBytes)
#define EXEC_Nop(bytes, sgn, sem)
#define EXEC_Halt(bytes, sgn, sem) res.halted = true
#define EXEC_SliceEnd(bytes, sgn, sem) res.sliceEnded = true

ExecResult
execute(const isa::Instruction &inst, Addr pc, RegFile &regs,
        MemoryImage &mem, bool allow_stores)
{
    ExecResult res;
    res.nextPc = pc + isa::instBytes;

    const std::uint64_t a = regs.read(inst.ra);
    const std::uint64_t b = regs.read(inst.rb);
    const auto sa = static_cast<std::int64_t>(a);
    const auto sb = static_cast<std::int64_t>(b);
    const std::int64_t imm = inst.imm;
    using namespace isa;  // the sem expressions' helpers

    auto writeRc = [&](std::uint64_t v) {
        regs.write(inst.rc, v);
        res.value = v;
        res.wroteReg = true;
    };
    // Compute the effective address; false (a fault) if the access is
    // not permitted or lands on the null page.
    auto access = [&](bool permitted) {
        res.memAddr = b + static_cast<std::uint64_t>(imm);
        res.fault = !permitted || MemoryImage::faults(res.memAddr);
        return !res.fault;
    };

    switch (inst.op) {
#define SS_OP(name, method, kind, fu, lat, bytes, sgn, sem)              \
      case Opcode::name:                                              \
        EXEC_##kind(bytes, sgn, sem);                                 \
        break;
#include "isa/opcodes.def"
      default:
        SS_PANIC("unimplemented opcode ",
                 static_cast<unsigned>(inst.op));
    }

    if (res.taken && inst.hasStaticTarget())
        res.nextPc = inst.target;

    return res;
}

} // namespace specslice::arch
