#include "ir/parser.hpp"

#include <algorithm>
#include <map>
#include <string_view>
#include <utility>
#include <vector>

#include "support/string_utils.hpp"

namespace tadfa::ir {
namespace {

constexpr std::size_t kNpos = std::string_view::npos;

/// An instruction whose block targets are still label names. Its operands
/// and names sit at [begin, end) of the parser's per-function scratch.
struct PendingInstr {
  Opcode opcode;
  Reg dest;
  std::size_t operands_begin, operands_end;
  std::size_t targets_begin, targets_end;
  std::size_t line;
};

struct PendingBlock {
  std::string_view name;
  std::size_t size;  // instructions
};

template <typename T>
std::vector<T> slice(const std::vector<T>& v, std::size_t b, std::size_t e) {
  return std::vector<T>(v.begin() + b, v.begin() + e);
}

enum class RegToken { kReg, kNotReg, kOutOfRange };

/// Reads "%N" with N a register number, 0..2^32-2. A negative N or text
/// that is no integer is not a register (an operand then reads as a
/// label); an integer past that range is an error.
RegToken parse_reg_token(std::string_view tok, Reg& out) {
  if (tok.size() < 2 || tok[0] != '%') {
    return RegToken::kNotReg;
  }
  long long v = 0;
  const std::errc ec = scan_int(tok.substr(1), v);
  if (ec == std::errc::result_out_of_range ||
      (ec == std::errc{} && v >= static_cast<long long>(kInvalidReg))) {
    return RegToken::kOutOfRange;
  }
  if (ec != std::errc{} || v < 0) {
    return RegToken::kNotReg;
  }
  out = static_cast<Reg>(v);
  return RegToken::kReg;
}

/// The comma-separated fields of a string, empty ones included.
class Fields {
 public:
  explicit Fields(std::string_view s) : rest_(s) {}

  /// Sets `field` to the next field; false once every field was read.
  bool next(std::string_view& field) {
    if (done_) {
      return false;
    }
    const std::size_t comma = rest_.find(',');
    field = rest_.substr(0, comma);
    done_ = comma == kNpos;
    rest_.remove_prefix(done_ ? rest_.size() : comma + 1);
    return true;
  }

 private:
  std::string_view rest_;
  bool done_ = false;
};

/// One pass over the caller's text: lines and tokens are views into it,
/// and a function's instructions, operands and label names collect in
/// scratch vectors that are reused for the next function. Labels resolve
/// once the function's '}' is read.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Module> run(ParseError* error) {
    Module module;
    std::string_view line;
    while (next_line(line)) {
      if (line.empty()) {
        continue;
      }
      const bool is_ref = starts_with(line, "ref ");
      if (!(is_ref ? parse_reference(line, module)
                   : parse_function(line, module))) {
        if (error != nullptr) {
          *error = std::move(error_);
        }
        return std::nullopt;
      }
    }
    return module;
  }

 private:
  /// Reads the next line, cut at ';' and trimmed; false past the last
  /// one. The text after the final '\n' is a line too, even when empty.
  bool next_line(std::string_view& line) {
    if (offset_ > text_.size()) {
      return false;
    }
    const std::size_t nl = text_.find('\n', offset_);
    const std::size_t end = nl == kNpos ? text_.size() : nl;
    line = text_.substr(offset_, end - offset_);
    offset_ = end + 1;
    ++line_no_;
    line = trim(line.substr(0, line.find(';')));
    return true;
  }

  bool fail(std::size_t line, std::string message) {
    error_ = {line, std::move(message)};
    return false;
  }
  bool fail(std::string message) { return fail(line_no_, std::move(message)); }

  bool fail_range(std::string_view tok) {
    return fail("number out of range '" + std::string(tok) + "'");
  }

  void note_reg(Reg r) {
    max_reg_ = std::max(max_reg_, r);
    any_reg_ = true;
  }

  // "ref @from -> @to"
  bool parse_reference(std::string_view line, Module& module) {
    line.remove_prefix(4);  // "ref "
    const std::size_t arrow = line.find("->");
    if (arrow == kNpos) {
      return fail("expected 'ref @from -> @to'");
    }
    const std::string_view from = trim(line.substr(0, arrow));
    const std::string_view to = trim(line.substr(arrow + 2));
    if (from.size() < 2 || from[0] != '@' || to.size() < 2 || to[0] != '@') {
      return fail("expected 'ref @from -> @to'");
    }
    module.add_reference(std::string(from.substr(1)),
                         std::string(to.substr(1)));
    return true;
  }

  bool parse_function(std::string_view header, Module& module) {
    if (!starts_with(header, "func @")) {
      return fail("expected 'func @name(...) {'");
    }
    header.remove_prefix(6);
    const std::size_t paren = header.find('(');
    if (paren == kNpos) {
      return fail("missing '(' in function header");
    }
    const std::string_view name = trim(header.substr(0, paren));
    if (name.empty()) {
      return fail("empty function name");
    }
    const std::size_t close = header.find(')', paren);
    if (close == kNpos) {
      return fail("missing ')' in function header");
    }
    if (trim(header.substr(close + 1)) != "{") {
      return fail("expected '{' after parameter list");
    }

    params_.clear();
    blocks_.clear();
    instrs_.clear();
    operands_.clear();
    target_names_.clear();
    max_reg_ = 0;
    any_reg_ = false;
    const std::string_view param_text =
        header.substr(paren + 1, close - paren - 1);
    if (!trim(param_text).empty()) {
      Fields fields(param_text);
      for (std::string_view p; fields.next(p);) {
        Reg r = kInvalidReg;
        switch (parse_reg_token(trim(p), r)) {
          case RegToken::kReg:
            params_.push_back(r);
            note_reg(r);
            break;
          case RegToken::kOutOfRange:
            return fail_range(trim(p));
          case RegToken::kNotReg:
            return fail("bad parameter '" + std::string(p) + "'");
        }
      }
    }

    bool closed = false;
    std::string_view line;
    while (next_line(line)) {
      if (line.empty()) {
        continue;
      }
      if (line == "}") {
        closed = true;
        break;
      }
      if (line.back() == ':' && line.find(' ') == kNpos) {
        if (line.size() == 1) {
          return fail("empty block label");
        }
        blocks_.push_back({line.substr(0, line.size() - 1), 0});
        continue;
      }
      if (blocks_.empty()) {
        return fail("instruction before first block label");
      }
      if (!parse_instruction(line)) {
        return false;
      }
    }
    // What is checked once the body is read is reported on the line after
    // its '}', or after the last line.
    const std::size_t after = line_no_ + 1;
    if (!closed) {
      return fail(after, "missing closing '}'");
    }
    if (blocks_.empty()) {
      return fail(after, "function has no blocks");
    }
    if (!resolve_labels(after)) {
      return false;
    }
    materialize(name, module);
    return true;
  }

  bool parse_instruction(std::string_view line) {
    // Optional "%N =" prefix: the text before the first '=', when it
    // starts with '%'.
    PendingInstr instr{};
    instr.dest = kInvalidReg;
    instr.line = line_no_;
    std::string_view body = line;
    if (const std::size_t eq = line.find('='); eq != kNpos) {
      const std::string_view head = trim(line.substr(0, eq));
      if (starts_with(head, "%")) {
        switch (parse_reg_token(head, instr.dest)) {
          case RegToken::kReg:
            note_reg(instr.dest);
            break;
          case RegToken::kOutOfRange:
            return fail_range(head);
          case RegToken::kNotReg:
            return fail("bad destination register");
        }
        body = line.substr(eq + 1);
      }
    }
    body = trim(body);
    const std::size_t sp = body.find(' ');
    const std::string_view mnemonic = body.substr(0, sp);
    const auto opcode = opcode_from_name(mnemonic);
    if (!opcode) {
      return fail("unknown mnemonic '" + std::string(mnemonic) + "'");
    }
    instr.opcode = *opcode;
    instr.operands_begin = operands_.size();
    instr.targets_begin = target_names_.size();
    if (sp != kNpos) {
      Fields fields(body.substr(sp + 1));
      for (std::string_view field; fields.next(field);) {
        if (!parse_operand(trim(field))) {
          return false;
        }
      }
    }
    instr.operands_end = operands_.size();
    instr.targets_end = target_names_.size();
    instrs_.push_back(instr);
    ++blocks_.back().size;
    return true;
  }

  /// One operand: a register, an immediate, or else a label name.
  bool parse_operand(std::string_view t) {
    if (t.empty()) {
      return fail("empty operand");
    }
    Reg r = kInvalidReg;
    switch (parse_reg_token(t, r)) {
      case RegToken::kReg:
        operands_.push_back(Operand::reg(r));
        note_reg(r);
        return true;
      case RegToken::kOutOfRange:
        return fail_range(t);
      case RegToken::kNotReg:
        break;
    }
    long long imm = 0;
    const std::errc ec = scan_int(t, imm);
    if (ec == std::errc::result_out_of_range) {
      return fail_range(t);
    }
    if (ec == std::errc{}) {
      operands_.push_back(Operand::imm(imm));
    } else {
      target_names_.push_back(t);
    }
    return true;
  }

  /// Fills target_ids_ from target_names_, or reports the first duplicate
  /// label in block order, else the first unknown one in text order.
  bool resolve_labels(std::size_t after) {
    labels_.clear();
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
      if (!labels_.emplace(blocks_[b].name, static_cast<BlockId>(b)).second) {
        const std::string label(blocks_[b].name);
        return fail(after, "duplicate block label '" + label + "'");
      }
    }
    target_ids_.clear();
    for (const PendingInstr& pi : instrs_) {
      for (std::size_t t = pi.targets_begin; t < pi.targets_end; ++t) {
        const auto it = labels_.find(target_names_[t]);
        if (it == labels_.end()) {
          const std::string label(target_names_[t]);
          return fail(pi.line, "unknown block label '" + label + "'");
        }
        target_ids_.push_back(it->second);
      }
    }
    return true;
  }

  void materialize(std::string_view name, Module& module) {
    Function& func = module.add_function(std::string(name));
    func.blocks().reserve(blocks_.size());
    std::size_t i = 0;
    for (const PendingBlock& pb : blocks_) {
      const BlockId id = func.add_block(std::string(pb.name));
      BasicBlock& block = func.block(id);
      block.instructions().reserve(pb.size);
      for (const std::size_t end = i + pb.size; i < end; ++i) {
        const PendingInstr& pi = instrs_[i];
        auto ops = slice(operands_, pi.operands_begin, pi.operands_end);
        auto ids = slice(target_ids_, pi.targets_begin, pi.targets_end);
        block.append({pi.opcode, pi.dest, std::move(ops), std::move(ids)});
      }
    }
    func.ensure_regs(any_reg_ ? max_reg_ + 1 : 0);
    for (Reg p : params_) {
      func.add_param_reg(p);
    }
  }

  std::string_view text_;
  std::size_t offset_ = 0;   // start of the next line; past the end when done
  std::size_t line_no_ = 0;  // 1-based number of the line last read
  ParseError error_;

  // Per-function scratch.
  std::vector<Reg> params_;
  std::vector<PendingBlock> blocks_;
  std::vector<PendingInstr> instrs_;
  std::vector<Operand> operands_;
  std::vector<std::string_view> target_names_;
  std::vector<BlockId> target_ids_;
  std::map<std::string_view, BlockId> labels_;
  Reg max_reg_ = 0;
  bool any_reg_ = false;
};

}  // namespace

std::optional<Module> parse_module(std::string_view text, ParseError* error) {
  return Parser(text).run(error);
}

std::optional<Function> parse_function(std::string_view text,
                                       ParseError* error) {
  auto module = parse_module(text, error);
  if (!module) {
    return std::nullopt;
  }
  if (module->functions().size() != 1) {
    if (error != nullptr) {
      *error = {0, "expected exactly one function"};
    }
    return std::nullopt;
  }
  return std::move(module->functions().front());
}

}  // namespace tadfa::ir
