/**
 * @file
 * A label-based assembler for the zsr ISA. Workloads and speculative
 * slices are written against this API; it resolves forward references
 * and produces a CodeSection plus a symbol table.
 */

#ifndef SPECSLICE_ISA_ASSEMBLER_HH
#define SPECSLICE_ISA_ASSEMBLER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.hh"
#include "isa/instruction.hh"
#include "isa/program.hh"

namespace specslice::isa
{

/**
 * Builds one code section. Typical use:
 * @code
 *   Assembler as(0x1000);
 *   as.label("loop");
 *   as.ldq(3, 6, 0);
 *   as.beq(3, "done");
 *   as.br("loop");
 *   as.label("done");
 *   as.halt();
 *   CodeSection sec = as.finish();
 * @endcode
 */
class Assembler
{
  public:
    explicit Assembler(Addr base) : base_(base) {}

    /** Define a label at the current position. */
    void label(const std::string &name);

    /** @return the address of the next instruction to be emitted. */
    Addr here() const { return base_ + code_.size() * instBytes; }

    /*
     * One emitter per regular-form row of isa/opcodes.def, named by
     * its method column and shaped by its kind:
     *   AluRR/Cmov  add(rc, ra, rb)      AluR      cvtif(rc, ra)
     *   AluRI       addi(rc, ra, imm)    AluI      ldi(rc, imm)
     *   Load        ldq(rc, rb, off)     Store     stq(ra, rb, off)
     *   Prefetch    prefetch(rb, off)    CondBr    beq(ra, label)
     * Register fields an emitter does not take stay the zero register.
     * The irregular kinds' emitters are written out below.
     */
#define SS_OP(name, method, kind, ...) SS_ASM_##kind(Opcode::name, method)
#define SS_ASM_AluRR(opc, fn)                                         \
    void fn(RegIndex rc, RegIndex ra, RegIndex rb)                    \
    {                                                                 \
        emit({.op = opc, .ra = ra, .rb = rb, .rc = rc});              \
    }
#define SS_ASM_Cmov SS_ASM_AluRR
#define SS_ASM_AluR(opc, fn)                                          \
    void fn(RegIndex rc, RegIndex ra)                                 \
    {                                                                 \
        emit({.op = opc, .ra = ra, .rc = rc});                        \
    }
#define SS_ASM_AluRI(opc, fn)                                         \
    void fn(RegIndex rc, RegIndex ra, std::int32_t imm)               \
    {                                                                 \
        emit({.op = opc, .ra = ra, .rc = rc, .imm = imm});            \
    }
#define SS_ASM_AluI(opc, fn)                                          \
    void fn(RegIndex rc, std::int32_t imm)                            \
    {                                                                 \
        emit({.op = opc, .rc = rc, .imm = imm});                      \
    }
#define SS_ASM_Load(opc, fn)                                          \
    void fn(RegIndex rc, RegIndex rb, std::int32_t off)               \
    {                                                                 \
        emit({.op = opc, .rb = rb, .rc = rc, .imm = off});            \
    }
#define SS_ASM_Store(opc, fn)                                         \
    void fn(RegIndex ra, RegIndex rb, std::int32_t off)               \
    {                                                                 \
        emit({.op = opc, .ra = ra, .rb = rb, .imm = off});            \
    }
#define SS_ASM_Prefetch(opc, fn)                                      \
    void fn(RegIndex rb, std::int32_t off)                            \
    {                                                                 \
        emit({.op = opc, .rb = rb, .imm = off});                      \
    }
#define SS_ASM_CondBr(opc, fn)                                        \
    void fn(RegIndex ra, const std::string &target)                   \
    {                                                                 \
        emitBranch(opc, ra, regZero, target);                         \
    }
#define SS_ASM_Irregular(opc, fn)
#define SS_ASM_Br SS_ASM_Irregular
#define SS_ASM_Call SS_ASM_Irregular
#define SS_ASM_Jmp SS_ASM_Irregular
#define SS_ASM_CallR SS_ASM_Irregular
#define SS_ASM_Ret SS_ASM_Irregular
#define SS_ASM_Nop SS_ASM_Irregular
#define SS_ASM_Halt SS_ASM_Irregular
#define SS_ASM_SliceEnd SS_ASM_Irregular
#include "isa/opcodes.def"
#undef SS_ASM_AluRR
#undef SS_ASM_Cmov
#undef SS_ASM_AluR
#undef SS_ASM_AluRI
#undef SS_ASM_AluI
#undef SS_ASM_Load
#undef SS_ASM_Store
#undef SS_ASM_Prefetch
#undef SS_ASM_CondBr
#undef SS_ASM_Irregular
#undef SS_ASM_Br
#undef SS_ASM_Call
#undef SS_ASM_Jmp
#undef SS_ASM_CallR
#undef SS_ASM_Ret
#undef SS_ASM_Nop
#undef SS_ASM_Halt
#undef SS_ASM_SliceEnd

    /** Load a full 64-bit constant (ldi + shifts as needed). */
    void ldi64(RegIndex rc, std::uint64_t value);
    /** Copy register (or_ with zero). */
    void mov(RegIndex rc, RegIndex ra);

    // Irregular control (targets are labels; forward references
    // allowed, as for the conditional branches).
    void br(const std::string &target);
    void call(const std::string &target, RegIndex rc = regLink);
    void jmp(RegIndex ra);
    void callr(RegIndex rb, RegIndex rc = regLink);
    void ret(RegIndex ra = regLink);

    // Misc.
    void nop();
    void halt();
    void sliceEnd();

    /** Resolve fixups and return the finished section. */
    CodeSection finish();

    /** Label -> address map (valid after finish()). */
    const std::map<std::string, Addr> &symbols() const { return symbols_; }

  private:
    void emit(Instruction inst);
    void emitBranch(Opcode op, RegIndex ra, RegIndex rc,
                    const std::string &target);

    struct Fixup
    {
        std::size_t index;
        std::string label;
    };

    Addr base_;
    std::vector<Instruction> code_;
    std::map<std::string, Addr> symbols_;
    std::vector<Fixup> fixups_;
    bool finished_ = false;
};

} // namespace specslice::isa

#endif // SPECSLICE_ISA_ASSEMBLER_HH
