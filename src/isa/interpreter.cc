#include "isa/interpreter.hh"

#include <bit>

#include "common/log.hh"

namespace hs {

namespace {

/** Same data-segment confinement the pipeline applies. */
constexpr Addr dataSegMask = 0xFFFFFFFFull;

Addr
effAddr(int64_t base, int64_t imm)
{
    return (static_cast<Addr>(wrapAdd(base, imm)) & dataSegMask) &
           ~Addr{7};
}

} // namespace

InterpResult
interpret(const Program &program, uint64_t max_steps,
          SparseMemory *memory)
{
    if (program.empty())
        fatal("interpret: empty program");

    SparseMemory local;
    SparseMemory &mem = memory ? *memory : local;
    if (!memory) {
        for (const auto &[addr, value] : program.dataImage())
            mem.write64(addr, value);
    }

    InterpResult result;
    for (const auto &[reg, value] : program.initRegs())
        result.intRegs[static_cast<size_t>(reg)] = value;

    uint64_t pc = 0;
    auto &r = result.intRegs;
    auto &f = result.fpRegs;

    while (result.steps < max_steps) {
        const Instruction &si = program.fetch(pc);
        ++result.steps;
        uint64_t next = pc + 1;
        int64_t a = r[si.rs1];
        int64_t b = r[si.rs2];

        switch (si.op) {
          case Opcode::Add: r[si.rd] = wrapAdd(a, b); break;
          case Opcode::Sub: r[si.rd] = wrapSub(a, b); break;
          case Opcode::Mul: r[si.rd] = wrapMul(a, b); break;
          case Opcode::Div: r[si.rd] = wrapDiv(a, b); break;
          case Opcode::And: r[si.rd] = a & b; break;
          case Opcode::Or: r[si.rd] = a | b; break;
          case Opcode::Xor: r[si.rd] = a ^ b; break;
          case Opcode::Sll: r[si.rd] = a << (b & 63); break;
          case Opcode::Srl:
            r[si.rd] = static_cast<int64_t>(static_cast<uint64_t>(a) >>
                                            (b & 63));
            break;
          case Opcode::Sra: r[si.rd] = a >> (b & 63); break;
          case Opcode::Slt: r[si.rd] = a < b ? 1 : 0; break;
          case Opcode::Addi: r[si.rd] = wrapAdd(a, si.imm); break;
          case Opcode::Andi: r[si.rd] = a & si.imm; break;
          case Opcode::Ori: r[si.rd] = a | si.imm; break;
          case Opcode::Xori: r[si.rd] = a ^ si.imm; break;
          case Opcode::Slti: r[si.rd] = a < si.imm ? 1 : 0; break;
          case Opcode::Slli: r[si.rd] = a << (si.imm & 63); break;
          case Opcode::Srli:
            r[si.rd] = static_cast<int64_t>(static_cast<uint64_t>(a) >>
                                            (si.imm & 63));
            break;
          case Opcode::Lui: r[si.rd] = si.imm << 16; break;
          case Opcode::Fadd: f[si.rd] = f[si.rs1] + f[si.rs2]; break;
          case Opcode::Fsub: f[si.rd] = f[si.rs1] - f[si.rs2]; break;
          case Opcode::Fmul: f[si.rd] = f[si.rs1] * f[si.rs2]; break;
          case Opcode::Fdiv: f[si.rd] = f[si.rs1] / f[si.rs2]; break;
          case Opcode::Fcvt: f[si.rd] = static_cast<double>(a); break;
          case Opcode::Fmov: f[si.rd] = f[si.rs1]; break;
          case Opcode::Ld:
            r[si.rd] = static_cast<int64_t>(
                mem.read64(effAddr(a, si.imm)));
            break;
          case Opcode::Fld:
            f[si.rd] = std::bit_cast<double>(
                mem.read64(effAddr(a, si.imm)));
            break;
          case Opcode::St:
            mem.write64(effAddr(a, si.imm), static_cast<uint64_t>(b));
            break;
          case Opcode::Fst:
            mem.write64(effAddr(a, si.imm),
                        std::bit_cast<uint64_t>(f[si.rs2]));
            break;
          case Opcode::Beq:
            if (a == b)
                next = si.target;
            break;
          case Opcode::Bne:
            if (a != b)
                next = si.target;
            break;
          case Opcode::Blt:
            if (a < b)
                next = si.target;
            break;
          case Opcode::Bge:
            if (a >= b)
                next = si.target;
            break;
          case Opcode::Jmp:
            next = si.target;
            break;
          case Opcode::Nop:
            break;
          case Opcode::Halt:
            result.halted = true;
            r[0] = 0;
            return result;
          default:
            panic("interpret: unhandled opcode %s", opcodeName(si.op));
        }
        r[0] = 0; // r0 is architecturally zero
        pc = next;
    }
    return result;
}

} // namespace hs
