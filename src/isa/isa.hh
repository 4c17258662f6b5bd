/**
 * @file
 * The simulated RISC instruction set.
 *
 * A small Alpha-flavoured load/store ISA: 32 integer registers (r0 wired
 * to zero), 32 floating-point registers, and the operation classes the
 * SMT pipeline models distinctly (int ALU / multiply / divide, FP add /
 * multiply / divide, loads, stores, branches, jumps).
 *
 * Instructions are held decoded (no binary encoding) since the pipeline
 * is a performance model; the assembler in assembler.hh produces them
 * from text so malicious kernels can be written exactly as the listings
 * in Figures 1-2 of the paper.
 */

#ifndef HS_ISA_ISA_HH
#define HS_ISA_ISA_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace hs {

/** Number of architectural integer registers (r0 is hard-wired zero). */
constexpr int numIntRegs = 32;
/** Number of architectural floating-point registers. */
constexpr int numFpRegs = 32;

/** All operations in the simulated ISA. */
enum class Opcode : uint8_t {
    // Integer register-register.
    Add, Sub, Mul, Div, And, Or, Xor, Sll, Srl, Sra, Slt,
    // Integer register-immediate.
    Addi, Andi, Ori, Xori, Slti, Slli, Srli, Lui,
    // Floating point.
    Fadd, Fsub, Fmul, Fdiv, Fcvt, Fmov,
    // Memory.
    Ld, St, Fld, Fst,
    // Control.
    Beq, Bne, Blt, Bge, Jmp,
    // Misc.
    Nop, Halt,

    NumOpcodes
};

/** Functional-unit / scheduling class of an operation. */
enum class InstClass : uint8_t {
    IntAlu,
    IntMult,
    IntDiv,
    FpAdd,
    FpMul,
    FpDiv,
    Load,
    Store,
    Branch, ///< conditional branch
    Jump,   ///< unconditional jump
    Nop,
    Halt
};

namespace detail {

/** Operand-use flag bits for the per-opcode property table. */
constexpr uint8_t kWritesInt = 1U << 0;   ///< rd names an int register
constexpr uint8_t kWritesFp = 1U << 1;    ///< rd names an FP register
constexpr uint8_t kReadsIntRs1 = 1U << 2; ///< rs1 read from the int file
constexpr uint8_t kReadsIntRs2 = 1U << 3; ///< rs2 read from the int file
constexpr uint8_t kReadsFpRs1 = 1U << 4;  ///< rs1 read from the FP file
constexpr uint8_t kReadsFpRs2 = 1U << 5;  ///< rs2 read from the FP file

/** Scheduling class and operand flags for one opcode. */
struct OpcodeInfo
{
    InstClass cls;
    uint8_t flags;
};

/**
 * Per-opcode property table, indexed by opcode value and kept in exact
 * Opcode declaration order. The pipeline queries instruction properties
 * hundreds of millions of times per run, so they must be a single
 * indexed load, not an out-of-line switch.
 */
constexpr OpcodeInfo
    kOpcodeInfo[static_cast<size_t>(Opcode::NumOpcodes)] = {
        // Integer register-register.
        {InstClass::IntAlu, kWritesInt | kReadsIntRs1 | kReadsIntRs2},
        {InstClass::IntAlu, kWritesInt | kReadsIntRs1 | kReadsIntRs2},
        {InstClass::IntMult, kWritesInt | kReadsIntRs1 | kReadsIntRs2},
        {InstClass::IntDiv, kWritesInt | kReadsIntRs1 | kReadsIntRs2},
        {InstClass::IntAlu, kWritesInt | kReadsIntRs1 | kReadsIntRs2},
        {InstClass::IntAlu, kWritesInt | kReadsIntRs1 | kReadsIntRs2},
        {InstClass::IntAlu, kWritesInt | kReadsIntRs1 | kReadsIntRs2},
        {InstClass::IntAlu, kWritesInt | kReadsIntRs1 | kReadsIntRs2},
        {InstClass::IntAlu, kWritesInt | kReadsIntRs1 | kReadsIntRs2},
        {InstClass::IntAlu, kWritesInt | kReadsIntRs1 | kReadsIntRs2},
        {InstClass::IntAlu, kWritesInt | kReadsIntRs1 | kReadsIntRs2},
        // Integer register-immediate.
        {InstClass::IntAlu, kWritesInt | kReadsIntRs1}, // Addi
        {InstClass::IntAlu, kWritesInt | kReadsIntRs1}, // Andi
        {InstClass::IntAlu, kWritesInt | kReadsIntRs1}, // Ori
        {InstClass::IntAlu, kWritesInt | kReadsIntRs1}, // Xori
        {InstClass::IntAlu, kWritesInt | kReadsIntRs1}, // Slti
        {InstClass::IntAlu, kWritesInt | kReadsIntRs1}, // Slli
        {InstClass::IntAlu, kWritesInt | kReadsIntRs1}, // Srli
        {InstClass::IntAlu, kWritesInt},                // Lui
        // Floating point.
        {InstClass::FpAdd, kWritesFp | kReadsFpRs1 | kReadsFpRs2},
        {InstClass::FpAdd, kWritesFp | kReadsFpRs1 | kReadsFpRs2},
        {InstClass::FpMul, kWritesFp | kReadsFpRs1 | kReadsFpRs2},
        {InstClass::FpDiv, kWritesFp | kReadsFpRs1 | kReadsFpRs2},
        {InstClass::FpAdd, kWritesFp | kReadsIntRs1}, // Fcvt
        {InstClass::FpAdd, kWritesFp | kReadsFpRs1},  // Fmov
        // Memory.
        {InstClass::Load, kWritesInt | kReadsIntRs1},  // Ld
        {InstClass::Store, kReadsIntRs1 | kReadsIntRs2}, // St
        {InstClass::Load, kWritesFp | kReadsIntRs1},   // Fld
        {InstClass::Store, kReadsIntRs1 | kReadsFpRs2}, // Fst
        // Control.
        {InstClass::Branch, kReadsIntRs1 | kReadsIntRs2},
        {InstClass::Branch, kReadsIntRs1 | kReadsIntRs2},
        {InstClass::Branch, kReadsIntRs1 | kReadsIntRs2},
        {InstClass::Branch, kReadsIntRs1 | kReadsIntRs2},
        {InstClass::Jump, 0},
        // Misc.
        {InstClass::Nop, 0},
        {InstClass::Halt, 0},
};

} // namespace detail

/**
 * One decoded instruction.
 *
 * Field usage by format:
 *  - reg-reg ALU/FP: rd <- rs1 op rs2
 *  - reg-imm ALU:    rd <- rs1 op imm
 *  - Ld/Fld:         rd <- MEM[rs1 + imm]
 *  - St/Fst:         MEM[rs1 + imm] <- rs2
 *  - Beq/Bne/...:    if (rs1 cmp rs2) goto target
 *  - Jmp:            goto target
 *
 * Register indices address the integer file for integer ops and the FP
 * file for FP ops; Fcvt reads rs1 from the integer file and writes rd in
 * the FP file.
 */
struct Instruction
{
    Opcode op = Opcode::Nop;
    uint8_t rd = 0;
    uint8_t rs1 = 0;
    uint8_t rs2 = 0;
    int64_t imm = 0;
    /** Branch/jump target as an instruction index within the program. */
    uint64_t target = 0;

    /** @return the scheduling class of this instruction. */
    constexpr InstClass instClass() const { return opcodeClass(op); }

    /** @return the scheduling class of @p op. */
    static constexpr InstClass
    opcodeClass(Opcode op)
    {
        return detail::kOpcodeInfo[static_cast<size_t>(op)].cls;
    }

    /** @return true if the operation writes an integer destination. */
    constexpr bool
    writesIntReg() const
    {
        return (flags() & detail::kWritesInt) != 0 && rd != 0;
    }
    /** @return true if the operation writes an FP destination. */
    constexpr bool
    writesFpReg() const
    {
        return (flags() & detail::kWritesFp) != 0;
    }
    /** @return true if rs1 names an integer source register. */
    constexpr bool
    readsIntRs1() const
    {
        return (flags() & detail::kReadsIntRs1) != 0;
    }
    /** @return true if rs2 names an integer source register. */
    constexpr bool
    readsIntRs2() const
    {
        return (flags() & detail::kReadsIntRs2) != 0;
    }
    /** @return true if rs1 names an FP source register. */
    constexpr bool
    readsFpRs1() const
    {
        return (flags() & detail::kReadsFpRs1) != 0;
    }
    /** @return true if rs2 names an FP source register. */
    constexpr bool
    readsFpRs2() const
    {
        return (flags() & detail::kReadsFpRs2) != 0;
    }

    /** @return true for loads and stores. */
    bool
    isMemRef() const
    {
        InstClass c = instClass();
        return c == InstClass::Load || c == InstClass::Store;
    }

    /** @return true for conditional branches and jumps. */
    bool
    isControl() const
    {
        InstClass c = instClass();
        return c == InstClass::Branch || c == InstClass::Jump;
    }

    /** @return a human-readable disassembly string. */
    std::string disassemble() const;

  private:
    /** @return the operand-use flag bits for this opcode. */
    constexpr uint8_t
    flags() const
    {
        return detail::kOpcodeInfo[static_cast<size_t>(op)].flags;
    }
};

/** @return the mnemonic for @p op (e.g. "add"). */
const char *opcodeName(Opcode op);

namespace detail {

/** Execution latency per InstClass, in declaration order. */
constexpr int kClassLatency[] = {
    1,  // IntAlu
    3,  // IntMult
    20, // IntDiv
    2,  // FpAdd
    4,  // FpMul
    12, // FpDiv
    1,  // Load (address generation; hit latency is the cache model's)
    1,  // Store (address generation)
    1,  // Branch
    1,  // Jump
    1,  // Nop
    1,  // Halt
};

} // namespace detail

/** @return the execution latency in cycles of class @p c (hit latency
 *  for memory ops is owned by the cache model, so Load/Store return the
 *  address-generation latency here). */
constexpr int
instClassLatency(InstClass c)
{
    return detail::kClassLatency[static_cast<size_t>(c)];
}

// Integer arithmetic wraps in two's complement, as the hardware does;
// both execution engines use these so neither relies on signed
// overflow (undefined in C++). Shifts need no helper: C++20 defines
// them on negative operands.

constexpr int64_t
wrapAdd(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) +
                                static_cast<uint64_t>(b));
}

constexpr int64_t
wrapSub(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) -
                                static_cast<uint64_t>(b));
}

constexpr int64_t
wrapMul(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) *
                                static_cast<uint64_t>(b));
}

/** Div: x / 0 is 0, and INT64_MIN / -1 wraps to INT64_MIN. */
constexpr int64_t
wrapDiv(int64_t a, int64_t b)
{
    if (b == 0)
        return 0;
    return b == -1 ? wrapSub(0, a) : a / b;
}

} // namespace hs

#endif // HS_ISA_ISA_HH
