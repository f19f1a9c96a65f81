/**
 * @file
 * The zsr instruction set: an Alpha-like 64-bit RISC ISA sufficient to
 * express the paper's workloads and speculative slices.
 *
 * Conventions:
 *  - 64 general 64-bit registers; r63 is hardwired to zero and r62 is
 *    the link register by convention.
 *  - Instructions occupy 8 bytes of instruction memory each.
 *  - R-format:  rc = ra OP rb
 *  - I-format:  rc = ra OP imm (imm is a signed 32-bit immediate)
 *  - Memory:    loads  rc = MEM[rb + imm]; stores MEM[rb + imm] = ra
 *  - Branches:  compare ra against zero (Alpha style); direct targets
 *    are resolved to absolute addresses by the assembler.
 *  - FP values live in the general registers as IEEE double bit
 *    patterns; FP compares produce an integer 0/1 so the integer
 *    branches can consume them.
 */

#ifndef SPECSLICE_ISA_OPCODES_HH
#define SPECSLICE_ISA_OPCODES_HH

#include <cstddef>
#include <cstdint>

namespace specslice::isa
{

/** Byte distance between consecutive instructions. */
constexpr std::uint64_t instBytes = 8;

/** Number of architectural registers. */
constexpr unsigned numRegs = 64;

/** Hardwired zero register. */
constexpr std::uint8_t regZero = 63;

/** Conventional link (return-address) register. */
constexpr std::uint8_t regLink = 62;

/** Every operation in the zsr ISA, numbered by isa/opcodes.def. */
enum class Opcode : std::uint16_t
{
#define SS_OP(name, ...) name,
#include "isa/opcodes.def"
    NumOpcodes
};

/** Functional unit classes (Table 1's execution core). */
enum class FuClass : std::uint8_t
{
    IntAlu,     ///< full complement of simple integer units
    IntComplex, ///< single complex integer unit (mul/div)
    FpAlu,      ///< floating point (shares simple unit count)
    MemPort,    ///< load/store ports
    Branch,     ///< resolved on a simple unit
    None,       ///< nop/halt consume no unit
};

/** Static properties of an opcode. */
struct OpTraits
{
    const char *mnemonic;
    FuClass fu;
    std::uint8_t latency;    ///< execute latency in cycles
    std::uint8_t memBytes;   ///< access width of memory ops, else 0
    bool memSigned;          ///< narrow load sign- (not zero-) extends
    bool isLoad;
    bool isStore;
    bool isCondBranch;
    bool isUncondDirect;     ///< br / call
    bool isIndirect;         ///< jmp / callr / ret
    bool isCall;
    bool isReturn;
    bool writesRc;
    bool readsRa;
    bool readsRb;
    bool readsRc;            ///< cmov reads its destination
    bool hasImm;
};

namespace detail
{
/** Traits of every opcode, indexed by its number (see opcodes.cc). */
extern const OpTraits opTraitTable[];
/** Panics: @p idx is not an opcode number. */
[[noreturn]] void badOpcode(std::size_t idx);
} // namespace detail

/** @return the static traits of op; panics on an out-of-range op. */
inline const OpTraits &
opTraits(Opcode op)
{
    const auto idx = static_cast<std::size_t>(op);
    if (idx >= static_cast<std::size_t>(Opcode::NumOpcodes)) [[unlikely]]
        detail::badOpcode(idx);
    return detail::opTraitTable[idx];
}

/** @return the register value a load of the given width and
 *  extension produces from raw, the zero-extended bytes it read. */
constexpr std::uint64_t
extendLoad(std::uint64_t raw, unsigned bytes, bool sign_extend)
{
    if (bytes >= 8)
        return raw;
    const std::uint64_t low = raw & ((std::uint64_t{1} << 8 * bytes) - 1);
    const std::uint64_t sign = std::uint64_t{1} << (8 * bytes - 1);
    return sign_extend ? (low ^ sign) - sign : low;
}

/** @return true if op transfers control (any branch/jump/call/ret). */
inline bool
isControl(Opcode op)
{
    const OpTraits &t = opTraits(op);
    return t.isCondBranch || t.isUncondDirect || t.isIndirect;
}

/** @return true if op accesses data memory. */
inline bool
isMem(Opcode op)
{
    const OpTraits &t = opTraits(op);
    return t.isLoad || t.isStore;
}

} // namespace specslice::isa

#endif // SPECSLICE_ISA_OPCODES_HH
