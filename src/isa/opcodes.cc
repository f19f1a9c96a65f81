#include "isa/opcodes.hh"

#include <string_view>

#include "common/logging.hh"

namespace specslice::isa
{

namespace
{

/**
 * An opcodes.def row's kind: its operand format, which trait flags
 * it has, and the skeleton arch::execute, FastForward and the
 * assembler expand it with (they paste the kind's name onto their
 * own per-kind macros).
 */
enum class OpKind : std::uint8_t
{
    AluRR,      ///< rc = sem(ra, rb)
    AluR,       ///< rc = sem(ra)
    AluRI,      ///< rc = sem(ra, imm)
    AluI,       ///< rc = sem(imm)
    Cmov,       ///< rc = rb if sem(ra); rc is also a source
    Load,       ///< rc = extend(MEM[rb + imm])
    Store,      ///< MEM[rb + imm] = ra
    Prefetch,   ///< load-like, no destination
    CondBr,     ///< pc = target if sem(ra)
    Br,         ///< unconditional direct
    Call,       ///< direct call: rc = return address, pc = target
    Jmp,        ///< unconditional indirect: pc = ra
    CallR,      ///< indirect call: rc = return address, pc = rb
    Ret,        ///< indirect return: pc = ra (pops RAS)
    Nop,
    Halt,       ///< terminates the main program
    SliceEnd,   ///< terminates a helper (slice) thread
};

/** A row's mnemonic: its emitter name less any trailing '_'. */
struct Mnemonic
{
    char text[12] = {};
};

constexpr Mnemonic
mnemonicOf(std::string_view method)
{
    if (method.ends_with('_'))
        method.remove_suffix(1);
    if (method.size() >= sizeof(Mnemonic::text))
        throw "mnemonic too long";  // fails the build: constant-evaluated
    Mnemonic m;
    method.copy(m.text, sizeof(m.text) - 1);
    return m;
}

constexpr Mnemonic mnemonics[] = {
#define SS_OP(name, method, ...) mnemonicOf(#method),
#include "isa/opcodes.def"
};

template <typename... Kinds>
constexpr bool
isOneOf(OpKind k, Kinds... kinds)
{
    return ((k == kinds) || ...);
}

/** The trait flags follow from the kind. */
constexpr OpTraits
makeTraits(Opcode op, OpKind k, FuClass fu, unsigned latency,
           unsigned mem_bytes, bool mem_signed)
{
    using K = OpKind;
    OpTraits t{};
    t.mnemonic = mnemonics[static_cast<std::size_t>(op)].text;
    t.fu = fu;
    t.latency = static_cast<std::uint8_t>(latency);
    t.memBytes = static_cast<std::uint8_t>(mem_bytes);
    t.memSigned = mem_signed;
    t.isLoad = isOneOf(k, K::Load, K::Prefetch);
    t.isStore = k == K::Store;
    t.isCondBranch = k == K::CondBr;
    t.isUncondDirect = isOneOf(k, K::Br, K::Call);
    t.isIndirect = isOneOf(k, K::Jmp, K::CallR, K::Ret);
    t.isCall = isOneOf(k, K::Call, K::CallR);
    t.isReturn = k == K::Ret;
    t.writesRc = isOneOf(k, K::AluRR, K::AluR, K::AluRI, K::AluI,
                         K::Cmov, K::Load, K::Call, K::CallR);
    t.readsRa = isOneOf(k, K::AluRR, K::AluR, K::AluRI, K::Cmov,
                        K::Store, K::CondBr, K::Jmp, K::Ret);
    t.readsRb = isOneOf(k, K::AluRR, K::Cmov, K::Load, K::Store,
                        K::Prefetch, K::CallR);
    t.readsRc = k == K::Cmov;
    t.hasImm = isOneOf(k, K::AluRI, K::AluI, K::Load, K::Store,
                       K::Prefetch);
    return t;
}

} // namespace

namespace detail
{

constexpr OpTraits opTraitTable[] = {
#define SS_OP(name, method, kind, fu, lat, bytes, sgn, sem)              \
    makeTraits(Opcode::name, OpKind::kind, FuClass::fu, lat, bytes, sgn),
#include "isa/opcodes.def"
};

void
badOpcode(std::size_t idx)
{
    SS_PANIC("bad opcode ", idx);
}

} // namespace detail

} // namespace specslice::isa
