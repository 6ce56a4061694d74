#include "ir/instruction.hpp"

#include <array>

namespace tadfa::ir {
namespace {

constexpr std::array<std::string_view, kNumOpcodes> kNames = {
    "const", "mov", "add", "sub", "mul",  "div",  "rem",  "and",  "or",
    "xor",   "shl", "shr", "neg", "not",  "min",  "max",  "cmpeq", "cmpne",
    "cmplt", "cmple", "cmpgt", "cmpge", "load", "store", "nop",  "br",
    "jmp",   "ret"};

/// The first eight bytes of a name, zero-padded, as one integer.
constexpr std::uint64_t pack(std::string_view s) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < s.size() && i < 8; ++i) {
    v |= std::uint64_t{static_cast<unsigned char>(s[i])} << (8 * i);
  }
  return v;
}

constexpr std::array<std::uint64_t, kNumOpcodes> kPacked = [] {
  std::array<std::uint64_t, kNumOpcodes> packed{};
  for (std::size_t i = 0; i < kNumOpcodes; ++i) {
    packed[i] = pack(kNames[i]);
  }
  return packed;
}();

}  // namespace

const char* opcode_name(Opcode op) {
  const auto i = static_cast<std::size_t>(op);
  TADFA_ASSERT(i < kNames.size());
  return kNames[i].data();
}

std::optional<Opcode> opcode_from_name(std::string_view name) {
  // One integer compare per opcode; the size check keeps "add\0" out.
  const std::uint64_t key = pack(name);
  for (std::size_t i = 0; i < kNames.size(); ++i) {
    if (key == kPacked[i] && name.size() == kNames[i].size()) {
      return static_cast<Opcode>(i);
    }
  }
  return std::nullopt;
}

bool is_terminator(Opcode op) {
  return op == Opcode::kBr || op == Opcode::kJmp || op == Opcode::kRet;
}

bool is_binary_alu(Opcode op) {
  switch (op) {
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kDiv:
    case Opcode::kRem:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kShl:
    case Opcode::kShr:
    case Opcode::kMin:
    case Opcode::kMax:
      return true;
    default:
      return is_compare(op);
  }
}

bool is_unary_alu(Opcode op) {
  return op == Opcode::kNeg || op == Opcode::kNot;
}

bool is_compare(Opcode op) {
  switch (op) {
    case Opcode::kCmpEq:
    case Opcode::kCmpNe:
    case Opcode::kCmpLt:
    case Opcode::kCmpLe:
    case Opcode::kCmpGt:
    case Opcode::kCmpGe:
      return true;
    default:
      return false;
  }
}

std::vector<Reg> Instruction::uses() const {
  std::vector<Reg> result;
  result.reserve(operands_.size());
  for (const Operand& op : operands_) {
    if (op.is_reg()) {
      result.push_back(op.reg());
    }
  }
  return result;
}

std::optional<Reg> Instruction::def() const {
  if (has_dest()) {
    return dest_;
  }
  return std::nullopt;
}

void Instruction::replace_uses(Reg from, Reg to) {
  for (Operand& op : operands_) {
    if (op.is_reg() && op.reg() == from) {
      op = Operand::reg(to);
    }
  }
}

std::size_t Instruction::access_count() const {
  return uses().size() + (has_dest() ? 1 : 0);
}

}  // namespace tadfa::ir
