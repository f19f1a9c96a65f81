#include "isa/instruction.hh"

#include <sstream>

namespace specslice::isa
{

namespace
{

std::string
regName(RegIndex r)
{
    if (r == regZero)
        return "rz";
    if (r == regLink)
        return "ra";
    std::string name(1, 'r');
    name += std::to_string(static_cast<unsigned>(r));
    return name;
}

} // namespace

std::string
Instruction::disassemble() const
{
    const OpTraits &t = traits();
    std::ostringstream os;
    os << t.mnemonic;

    if (t.isLoad) {
        if (t.writesRc)
            os << ' ' << regName(rc) << ", " << imm << '(' << regName(rb)
               << ')';
        else
            os << ' ' << imm << '(' << regName(rb) << ')';
    } else if (t.isStore) {
        os << ' ' << regName(ra) << ", " << imm << '(' << regName(rb)
           << ')';
    } else if (t.isCondBranch) {
        os << ' ' << regName(ra) << ", 0x" << std::hex << target;
    } else if (t.isUncondDirect) {
        if (t.writesRc)
            os << ' ' << regName(rc) << ',';
        os << " 0x" << std::hex << target;
    } else if (t.isIndirect) {
        if (t.writesRc)
            os << ' ' << regName(rc) << ", (" << regName(rb) << ')';
        else
            os << " (" << regName(ra) << ')';
    } else if (op == Opcode::Ldi) {
        os << ' ' << regName(rc) << ", " << imm;
    } else if (t.writesRc) {
        os << ' ' << regName(rc) << ", " << regName(ra);
        if (t.readsRb)
            os << ", " << regName(rb);
        if (t.hasImm)
            os << ", " << imm;
    }
    return os.str();
}

} // namespace specslice::isa
