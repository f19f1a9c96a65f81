#include "isa/assembler.hh"

#include "common/logging.hh"

namespace specslice::isa
{

void
Assembler::label(const std::string &name)
{
    SS_ASSERT(!finished_, "assembler already finished");
    auto [it, inserted] = symbols_.emplace(name, here());
    if (!inserted)
        SS_FATAL("duplicate label '", name, "'");
}

void
Assembler::emit(Instruction inst)
{
    SS_ASSERT(!finished_, "assembler already finished");
    code_.push_back(inst);
}

void
Assembler::emitBranch(Opcode op, RegIndex ra, RegIndex rc,
                      const std::string &target)
{
    fixups_.push_back({code_.size(), target});
    emit({.op = op, .ra = ra, .rc = rc});
}

void
Assembler::mov(RegIndex rc, RegIndex ra)
{
    or_(rc, ra, regZero);
}

void
Assembler::ldi64(RegIndex rc, std::uint64_t value)
{
    if (static_cast<std::int64_t>(static_cast<std::int32_t>(value)) ==
        static_cast<std::int64_t>(value)) {
        // Fits in a sign-extended 32-bit immediate.
        ldi(rc, static_cast<std::int32_t>(value));
        return;
    }
    // Build in 16-bit chunks; ori immediates stay positive so sign
    // extension never contaminates the high bits.
    ldi(rc, static_cast<std::int32_t>(value >> 32));
    slli(rc, rc, 16);
    ori(rc, rc, static_cast<std::int32_t>((value >> 16) & 0xffff));
    slli(rc, rc, 16);
    ori(rc, rc, static_cast<std::int32_t>(value & 0xffff));
}

void
Assembler::br(const std::string &t)
{
    emitBranch(Opcode::Br, regZero, regZero, t);
}

void
Assembler::call(const std::string &t, RegIndex rc)
{
    emitBranch(Opcode::Call, regZero, rc, t);
}

void
Assembler::jmp(RegIndex ra)
{
    emit({.op = Opcode::Jmp, .ra = ra});
}

void
Assembler::callr(RegIndex rb, RegIndex rc)
{
    emit({.op = Opcode::CallR, .rb = rb, .rc = rc});
}

void
Assembler::ret(RegIndex ra)
{
    emit({.op = Opcode::Ret, .ra = ra});
}

void
Assembler::nop()
{
    emit({.op = Opcode::Nop});
}

void
Assembler::halt()
{
    emit({.op = Opcode::Halt});
}

void
Assembler::sliceEnd()
{
    emit({.op = Opcode::SliceEnd});
}

CodeSection
Assembler::finish()
{
    SS_ASSERT(!finished_, "assembler already finished");
    finished_ = true;

    for (const Fixup &f : fixups_) {
        auto it = symbols_.find(f.label);
        if (it == symbols_.end())
            SS_FATAL("undefined label '", f.label, "'");
        code_[f.index].target = it->second;
    }

    CodeSection sec;
    sec.base = base_;
    sec.code = std::move(code_);
    return sec;
}

} // namespace specslice::isa
