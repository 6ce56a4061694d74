#include "ir/printer.hpp"

#include <charconv>

namespace tadfa::ir {
namespace {

// Each function is appended into one string; numbers go through to_chars.

template <typename Int>
void append_int(std::string& out, Int v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void append_reg(std::string& out, Reg r) {
  out += '%';
  append_int(out, r);
}

void append_instruction(std::string& out, const Function& func,
                        const Instruction& inst) {
  if (inst.has_dest()) {
    append_reg(out, inst.dest());
    out += " = ";
  }
  out += opcode_name(inst.opcode());
  const char* separator = " ";
  for (const Operand& op : inst.operands()) {
    out += separator;
    separator = ", ";
    if (op.is_reg()) {
      append_reg(out, op.reg());
    } else {
      append_int(out, op.imm());
    }
  }
  for (BlockId t : inst.targets()) {
    out += separator;
    separator = ", ";
    out += func.block(t).name();
  }
}

void append_function(std::string& out, const Function& func) {
  out += "func @";
  out += func.name();
  out += '(';
  for (std::size_t i = 0; i < func.params().size(); ++i) {
    if (i != 0) {
      out += ", ";
    }
    append_reg(out, func.params()[i]);
  }
  out += ") {\n";
  for (const BasicBlock& b : func.blocks()) {
    out += b.name();
    out += ":\n";
    for (const Instruction& inst : b.instructions()) {
      out += "  ";
      append_instruction(out, func, inst);
      out += '\n';
    }
  }
  out += "}\n";
}

/// Room for a typical line ("  %12 = add %3, %7") per instruction.
std::size_t estimated_size(const Function& func) {
  return 64 + 24 * func.instruction_count();
}

}  // namespace

std::string to_string(const Function& func, const Instruction& inst) {
  std::string out;
  append_instruction(out, func, inst);
  return out;
}

void print(std::ostream& os, const Function& func) {
  os << to_string(func);
}

void print(std::ostream& os, const Module& module) {
  os << to_string(module);
}

std::string to_string(const Function& func) {
  std::string out;
  out.reserve(estimated_size(func));
  append_function(out, func);
  return out;
}

std::string to_string(const Module& module) {
  std::size_t size = 0;
  for (const Function& f : module.functions()) {
    size += estimated_size(f);
  }
  std::string out;
  out.reserve(size);
  bool first = true;
  for (const Function& f : module.functions()) {
    if (!first) {
      out += '\n';
    }
    append_function(out, f);
    first = false;
  }
  if (!module.references().empty()) {
    out += '\n';
    for (const ModuleReference& r : module.references()) {
      out += "ref @";
      out += r.from;
      out += " -> @";
      out += r.to;
      out += '\n';
    }
  }
  return out;
}

}  // namespace tadfa::ir
