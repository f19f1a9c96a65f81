#include "isa/encoding.hh"

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace specslice::isa
{

std::uint64_t
encode(const Instruction &inst, Addr pc)
{
    std::uint32_t imm_field;
    if (inst.hasStaticTarget()) {
        std::int64_t disp =
            (static_cast<std::int64_t>(inst.target) -
             static_cast<std::int64_t>(pc + instBytes)) /
            static_cast<std::int64_t>(instBytes);
        SS_ASSERT(disp >= INT32_MIN && disp <= INT32_MAX,
                  "branch displacement overflow");
        imm_field = static_cast<std::uint32_t>(static_cast<std::int32_t>(disp));
    } else {
        imm_field = static_cast<std::uint32_t>(inst.imm);
    }

    std::uint64_t word = 0;
    word |= static_cast<std::uint64_t>(inst.op) << 54;
    word |= static_cast<std::uint64_t>(inst.ra & 0x3f) << 48;
    word |= static_cast<std::uint64_t>(inst.rb & 0x3f) << 42;
    word |= static_cast<std::uint64_t>(inst.rc & 0x3f) << 36;
    word |= imm_field;
    return word;
}

Instruction
decode(std::uint64_t word, Addr pc)
{
    Instruction inst;
    auto opnum = bits(word, 54, 10);
    SS_ASSERT(opnum < static_cast<std::uint64_t>(Opcode::NumOpcodes),
              "undecodable opcode field ", opnum);
    inst.op = static_cast<Opcode>(opnum);
    inst.ra = static_cast<RegIndex>(bits(word, 48, 6));
    inst.rb = static_cast<RegIndex>(bits(word, 42, 6));
    inst.rc = static_cast<RegIndex>(bits(word, 36, 6));

    auto imm_field = static_cast<std::int32_t>(
        static_cast<std::uint32_t>(bits(word, 0, 32)));
    const OpTraits &t = inst.traits();
    if (t.isCondBranch || t.isUncondDirect) {
        inst.target = pc + instBytes +
                      static_cast<std::int64_t>(imm_field) *
                          static_cast<std::int64_t>(instBytes);
        inst.imm = 0;
    } else {
        inst.imm = imm_field;
    }
    return inst;
}

} // namespace specslice::isa
