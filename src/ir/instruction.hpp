// Three-address intermediate representation: opcodes, operands, instructions.
//
// The IR is deliberately close to what a compiler back-end sees just before
// register allocation: virtual registers, explicit loads/stores, and
// block-terminating control flow. This is the representation on which the
// paper's thermal data flow analysis operates (Sec. 4: "the analysis makes
// the most sense if applied after register assignment ... the more ambitious
// possibility ... before register allocation").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/assert.hpp"

namespace tadfa::ir {

/// Virtual (pre-allocation) register id.
using Reg = std::uint32_t;
inline constexpr Reg kInvalidReg = ~Reg{0};

/// Basic block id (index into Function::blocks()).
using BlockId = std::uint32_t;
inline constexpr BlockId kInvalidBlock = ~BlockId{0};

/// Instruction operation. Arithmetic/logic ops define one register and use
/// one or two operands; memory ops move values between registers and the
/// (word-addressed) memory; terminators end a basic block.
enum class Opcode : std::uint8_t {
  kConst,  // %d = const imm
  kMov,    // %d = mov %s
  kAdd,
  kSub,
  kMul,
  kDiv,    // signed; division by zero traps in the interpreter
  kRem,
  kAnd,
  kOr,
  kXor,
  kShl,
  kShr,    // arithmetic shift right
  kNeg,    // unary
  kNot,    // unary (bitwise)
  kMin,
  kMax,
  kCmpEq,  // produce 0/1
  kCmpNe,
  kCmpLt,
  kCmpLe,
  kCmpGt,
  kCmpGe,
  kLoad,   // %d = load addr_operand
  kStore,  // store addr_operand, value_operand
  kNop,    // no effect; inserted by the cooling optimization (Sec. 4)
  kBr,     // br %cond, then_block, else_block
  kJmp,    // jmp block
  kRet,    // ret [operand]
};

/// Number of distinct opcodes (for tables indexed by opcode).
inline constexpr std::size_t kNumOpcodes =
    static_cast<std::size_t>(Opcode::kRet) + 1;

/// Human-readable mnemonic, e.g. "add".
const char* opcode_name(Opcode op);

/// Parses a mnemonic; returns nullopt for unknown names.
std::optional<Opcode> opcode_from_name(std::string_view name);

/// True for kBr/kJmp/kRet.
bool is_terminator(Opcode op);

/// True for binary ALU ops (two operands, one def).
bool is_binary_alu(Opcode op);

/// True for unary ALU ops (one operand, one def).
bool is_unary_alu(Opcode op);

/// True for comparison ops.
bool is_compare(Opcode op);

/// An operand is either a virtual register or an immediate integer.
class Operand {
 public:
  static Operand reg(Reg r) {
    TADFA_ASSERT(r != kInvalidReg);
    Operand o;
    o.is_reg_ = true;
    o.reg_ = r;
    return o;
  }
  static Operand imm(std::int64_t value) {
    Operand o;
    o.is_reg_ = false;
    o.imm_ = value;
    return o;
  }

  bool is_reg() const { return is_reg_; }
  bool is_imm() const { return !is_reg_; }

  Reg reg() const {
    TADFA_ASSERT(is_reg_);
    return reg_;
  }
  std::int64_t imm() const {
    TADFA_ASSERT(!is_reg_);
    return imm_;
  }

  friend bool operator==(const Operand& a, const Operand& b) {
    if (a.is_reg_ != b.is_reg_) {
      return false;
    }
    return a.is_reg_ ? a.reg_ == b.reg_ : a.imm_ == b.imm_;
  }

 private:
  bool is_reg_ = false;
  Reg reg_ = kInvalidReg;
  std::int64_t imm_ = 0;
};

/// A single three-address instruction.
///
/// Field usage by opcode family:
///  - ALU/Load/Const/Mov: `dest` is the defined register, `operands` the uses.
///  - Store: no dest; operands = {address, value}.
///  - Br: no dest; operands = {condition}; targets = {then, else}.
///  - Jmp: targets = {target}.
///  - Ret: operands = {} or {value}.
class Instruction {
 public:
  Instruction(Opcode op, Reg dest, std::vector<Operand> operands,
              std::vector<BlockId> targets = {})
      : opcode_(op),
        dest_(dest),
        operands_(std::move(operands)),
        targets_(std::move(targets)) {}

  Opcode opcode() const { return opcode_; }

  bool has_dest() const { return dest_ != kInvalidReg; }
  Reg dest() const {
    TADFA_ASSERT(has_dest());
    return dest_;
  }
  void set_dest(Reg r) { dest_ = r; }

  const std::vector<Operand>& operands() const { return operands_; }
  std::vector<Operand>& operands() { return operands_; }

  const std::vector<BlockId>& targets() const { return targets_; }
  std::vector<BlockId>& targets() { return targets_; }

  bool is_terminator() const { return ir::is_terminator(opcode_); }

  /// Registers read by this instruction (operand registers, in order,
  /// duplicates preserved — a duplicate is two physical read ports firing).
  std::vector<Reg> uses() const;

  /// Register written by this instruction, if any.
  std::optional<Reg> def() const;

  /// Replaces every use of `from` with `to`. Does not touch the def.
  void replace_uses(Reg from, Reg to);

  /// Total register-file accesses (reads + writes) this instruction makes.
  std::size_t access_count() const;

  friend bool operator==(const Instruction& a, const Instruction& b) {
    return a.opcode_ == b.opcode_ && a.dest_ == b.dest_ &&
           a.operands_ == b.operands_ && a.targets_ == b.targets_;
  }

 private:
  Opcode opcode_;
  Reg dest_ = kInvalidReg;
  std::vector<Operand> operands_;
  std::vector<BlockId> targets_;
};

}  // namespace tadfa::ir
