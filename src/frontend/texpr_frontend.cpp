#include "frontend/texpr_frontend.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ir/builder.hpp"

namespace tadfa::frontend {
namespace {

// --- Lexer -------------------------------------------------------------------

enum class TokKind { kEnd, kIdent, kInt, kPunct };

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;
  std::int64_t value = 0;  // kInt only
  std::size_t line = 1;
  std::size_t column = 1;
};

/// Internal fail-fast unwind; converted to a ParseResult at the API edge.
struct ParseFailure {
  Diagnostic diag;
};

[[noreturn]] void fail(std::size_t line, std::size_t column,
                       std::string message) {
  throw ParseFailure{{line, column, std::move(message)}};
}

[[noreturn]] void fail_at(const Token& tok, std::string message) {
  fail(tok.line, tok.column, std::move(message));
}

std::string describe_token(const Token& tok) {
  switch (tok.kind) {
    case TokKind::kEnd:
      return "end of input";
    case TokKind::kInt:
      return "integer '" + tok.text + "'";
    default:
      return "'" + tok.text + "'";
  }
}

class Lexer {
 public:
  explicit Lexer(const std::string& source) : src_(source) { advance(); }

  const Token& peek() const { return current_; }

  Token take() {
    Token tok = current_;
    advance();
    return tok;
  }

 private:
  void advance() {
    skip_ignored();
    current_ = Token{};
    current_.line = line_;
    current_.column = column_;
    if (pos_ >= src_.size()) {
      current_.kind = TokKind::kEnd;
      return;
    }
    char c = src_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      lex_ident();
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      lex_int();
    } else {
      lex_punct();
    }
  }

  void skip_ignored() {
    while (pos_ < src_.size()) {
      char c = src_[pos_];
      if (c == '#') {
        while (pos_ < src_.size() && src_[pos_] != '\n') {
          consume();
        }
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        consume();
      } else {
        break;
      }
    }
  }

  void lex_ident() {
    current_.kind = TokKind::kIdent;
    while (pos_ < src_.size()) {
      char c = src_[pos_];
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') {
        break;
      }
      current_.text.push_back(c);
      consume();
    }
  }

  void lex_int() {
    current_.kind = TokKind::kInt;
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    std::int64_t value = 0;
    while (pos_ < src_.size() &&
           std::isdigit(static_cast<unsigned char>(src_[pos_]))) {
      int digit = src_[pos_] - '0';
      if (value > (kMax - digit) / 10) {
        fail(current_.line, current_.column, "integer literal out of range");
      }
      value = value * 10 + digit;
      current_.text.push_back(src_[pos_]);
      consume();
    }
    current_.value = value;
  }

  void lex_punct() {
    current_.kind = TokKind::kPunct;
    char c = src_[pos_];
    current_.text.push_back(c);
    consume();
    // Two-character operators: == != <= >= << >>
    if (pos_ < src_.size()) {
      char d = src_[pos_];
      bool two = ((c == '=' || c == '!' || c == '<' || c == '>') && d == '=') ||
                 (c == '<' && d == '<') || (c == '>' && d == '>');
      if (two) {
        current_.text.push_back(d);
        consume();
      }
    }
    static const char* kKnown[] = {"(", ")", "{", "}", "[", "]", ",", ";",
                                   "=", "==", "!=", "<", "<=", ">", ">=",
                                   "<<", ">>", "+", "-", "*", "/", "%",
                                   "&", "|", "^", "~"};
    for (const char* p : kKnown) {
      if (current_.text == p) {
        return;
      }
    }
    fail(current_.line, current_.column,
         "unexpected character '" + current_.text + "'");
  }

  void consume() {
    if (src_[pos_] == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    ++pos_;
  }

  const std::string& src_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  std::size_t column_ = 1;
  Token current_;
};

// --- Expression AST ----------------------------------------------------------

struct Expr {
  enum class Kind { kInt, kVar, kIndex, kUnary, kBinary };
  Kind kind = Kind::kInt;
  std::int64_t value = 0;       // kInt
  std::string name;             // kVar / kIndex (the array variable)
  ir::Opcode op = ir::Opcode::kNop;  // kUnary / kBinary
  std::unique_ptr<Expr> a;      // kIndex: index; kUnary/kBinary: lhs
  std::unique_ptr<Expr> b;      // kBinary: rhs
  int height = 1;               // levels from this node down to a leaf
  std::size_t line = 0;
  std::size_t column = 0;
};

using ExprPtr = std::unique_ptr<Expr>;

/// Deepest nesting the parser accepts. Blocks, parentheses, index
/// brackets, builtin calls and unary operators each open one level, and
/// an expression tree may be no taller (a chain `a + b + c` is one level
/// taller per operator). Parsing, lowering and freeing the tree recurse
/// once per level, so the bound keeps deep input from overflowing the
/// stack; every shipped input nests 12 or fewer loops.
constexpr int kMaxNesting = 256;

[[noreturn]] void fail_nesting(const Token& at) {
  fail_at(at, "nesting deeper than " + std::to_string(kMaxNesting) + " levels");
}

/// Holds one level of nesting open for its lifetime; fails at `at` when
/// that level would pass kMaxNesting.
class Nest {
 public:
  Nest(int& depth, const Token& at) : depth_(depth) {
    if (depth_ == kMaxNesting) {
      fail_nesting(at);
    }
    ++depth_;
  }
  ~Nest() { --depth_; }
  Nest(const Nest&) = delete;
  Nest& operator=(const Nest&) = delete;

 private:
  int& depth_;
};

/// An interior node over `a` (and `b`) at `at`'s position; fails when
/// the tree would grow taller than kMaxNesting.
ExprPtr make_node(Expr::Kind kind, ir::Opcode op, const Token& at, ExprPtr a,
                  ExprPtr b = nullptr) {
  ExprPtr node = std::make_unique<Expr>();
  node->kind = kind;
  node->op = op;
  node->height = 1 + std::max(a->height, b != nullptr ? b->height : 0);
  if (node->height > kMaxNesting) {
    fail_nesting(at);
  }
  node->a = std::move(a);
  node->b = std::move(b);
  node->line = at.line;
  node->column = at.column;
  return node;
}

/// Binary operators by precedence level, loosest first. All operators at
/// one level are left-associative.
struct OpLevel {
  const char* text;
  ir::Opcode op;
  int level;
};
constexpr OpLevel kBinaryOps[] = {
    {"|", ir::Opcode::kOr, 0},     {"^", ir::Opcode::kXor, 1},
    {"&", ir::Opcode::kAnd, 2},    {"==", ir::Opcode::kCmpEq, 3},
    {"!=", ir::Opcode::kCmpNe, 3}, {"<", ir::Opcode::kCmpLt, 4},
    {"<=", ir::Opcode::kCmpLe, 4}, {">", ir::Opcode::kCmpGt, 4},
    {">=", ir::Opcode::kCmpGe, 4}, {"<<", ir::Opcode::kShl, 5},
    {">>", ir::Opcode::kShr, 5},   {"+", ir::Opcode::kAdd, 6},
    {"-", ir::Opcode::kSub, 6},    {"*", ir::Opcode::kMul, 7},
    {"/", ir::Opcode::kDiv, 7},    {"%", ir::Opcode::kRem, 7},
};
constexpr int kMaxLevel = 8;  // unary binds tighter than every level above

// --- Parser + lowering -------------------------------------------------------

/// Parses statements and lowers them through ir::IRBuilder as it goes;
/// only expressions get a transient AST (so `x = e` can route the root
/// of `e` into x's register instead of a temp + mov).
class Parser {
 public:
  explicit Parser(const std::string& source) : lex_(source) {}

  ir::Module parse_module() {
    if (lex_.peek().kind == TokKind::kEnd) {
      fail(0, 0, "empty source: expected at least one 'fn' definition");
    }
    ir::Module module;
    while (lex_.peek().kind != TokKind::kEnd) {
      parse_function(module);
    }
    return module;
  }

 private:
  // --- Token helpers ---------------------------------------------------------

  bool at_punct(const char* text) const {
    return lex_.peek().kind == TokKind::kPunct && lex_.peek().text == text;
  }

  bool at_keyword(const char* word) const {
    return lex_.peek().kind == TokKind::kIdent && lex_.peek().text == word;
  }

  Token expect_punct(const char* text) {
    if (!at_punct(text)) {
      fail_at(lex_.peek(), std::string("expected '") + text + "', found " +
                               describe_token(lex_.peek()));
    }
    return lex_.take();
  }

  Token expect_ident(const char* what) {
    if (lex_.peek().kind != TokKind::kIdent) {
      fail_at(lex_.peek(), std::string("expected ") + what + ", found " +
                               describe_token(lex_.peek()));
    }
    return lex_.take();
  }

  // --- Scopes ----------------------------------------------------------------

  ir::Reg lookup(const Token& name) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto found = it->find(name.text);
      if (found != it->end()) {
        return found->second;
      }
    }
    fail_at(name, "unknown variable '" + name.text +
                      "' (declare it with 'let' or a parameter)");
  }

  void declare(const Token& name, ir::Reg reg) {
    auto [it, inserted] = scopes_.back().emplace(name.text, reg);
    (void)it;
    if (!inserted) {
      fail_at(name, "variable '" + name.text +
                        "' is already declared in this scope");
    }
  }

  // --- Functions -------------------------------------------------------------

  void parse_function(ir::Module& module) {
    if (!at_keyword("fn")) {
      fail_at(lex_.peek(),
              "expected 'fn', found " + describe_token(lex_.peek()));
    }
    lex_.take();
    Token name = expect_ident("function name");
    if (module.find(name.text) != nullptr) {
      fail_at(name, "function '" + name.text + "' is already defined");
    }
    ir::Function func(name.text);
    builder_ = std::make_unique<ir::IRBuilder>(func);
    scopes_.clear();
    scopes_.emplace_back();
    block_counter_ = 0;

    expect_punct("(");
    if (!at_punct(")")) {
      while (true) {
        Token param = expect_ident("parameter name");
        declare(param, func.add_param());
        if (at_punct(",")) {
          lex_.take();
          continue;
        }
        break;
      }
    }
    expect_punct(")");

    ir::BlockId entry = builder_->create_block("entry");
    builder_->set_insert_point(entry);
    parse_braced_body();
    if (!current_block_terminated()) {
      builder_->ret();
    }
    builder_.reset();
    module.add_function(std::move(func));
  }

  bool current_block_terminated() {
    return builder_->function().block(builder_->insert_point()).has_terminator();
  }

  /// "{ stmt* }" in a fresh lexical scope.
  void parse_braced_body() {
    const Nest nest(depth_, expect_punct("{"));
    scopes_.emplace_back();
    while (!at_punct("}")) {
      if (lex_.peek().kind == TokKind::kEnd) {
        fail_at(lex_.peek(), "expected '}' before end of input");
      }
      parse_statement();
    }
    lex_.take();
    scopes_.pop_back();
  }

  // --- Statements ------------------------------------------------------------

  void parse_statement() {
    if (current_block_terminated()) {
      fail_at(lex_.peek(), "statement is unreachable (the enclosing block "
                           "already returned)");
    }
    if (at_keyword("let")) {
      parse_let();
    } else if (at_keyword("while")) {
      parse_while();
    } else if (at_keyword("if")) {
      parse_if();
    } else if (at_keyword("return")) {
      parse_return();
    } else if (lex_.peek().kind == TokKind::kIdent) {
      parse_assignment();
    } else {
      fail_at(lex_.peek(),
              "expected a statement ('let', 'while', 'if', 'return', or an "
              "assignment), found " +
                  describe_token(lex_.peek()));
    }
  }

  void parse_let() {
    lex_.take();  // let
    Token name = expect_ident("variable name");
    expect_punct("=");
    ExprPtr value = parse_expr();
    expect_punct(";");
    ir::Reg dest = builder_->fresh();
    lower_into(dest, *value);
    declare(name, dest);
  }

  void parse_assignment() {
    Token name = lex_.take();
    if (at_punct("[")) {
      // Array store: name[index] = value;
      ir::Reg base = lookup(name);
      lex_.take();
      ExprPtr index = parse_expr();
      expect_punct("]");
      expect_punct("=");
      ExprPtr value = parse_expr();
      expect_punct(";");
      ir::Operand addr = ir::IRBuilder::r(
          builder_->add(ir::IRBuilder::r(base), lower(*index)));
      builder_->store(addr, lower(*value));
      return;
    }
    ir::Reg dest = lookup(name);
    expect_punct("=");
    ExprPtr value = parse_expr();
    expect_punct(";");
    lower_into(dest, *value);
  }

  void parse_while() {
    lex_.take();  // while
    int n = block_counter_++;
    std::string prefix = "loop" + std::to_string(n);
    ir::BlockId head = builder_->create_block(prefix + "_head");
    ir::BlockId body = builder_->create_block(prefix + "_body");
    ir::BlockId end = builder_->create_block(prefix + "_end");

    builder_->jmp(head);
    builder_->set_insert_point(head);
    expect_punct("(");
    ExprPtr cond = parse_expr();
    expect_punct(")");
    builder_->br(to_reg(lower(*cond)), body, end);

    builder_->set_insert_point(body);
    parse_braced_body();
    if (!current_block_terminated()) {
      builder_->jmp(head);
    }
    builder_->set_insert_point(end);
  }

  void parse_if() {
    lex_.take();  // if
    int n = block_counter_++;
    std::string prefix = "if" + std::to_string(n);

    expect_punct("(");
    ExprPtr cond = parse_expr();
    expect_punct(")");
    ir::Reg cond_reg = to_reg(lower(*cond));

    // An else block always exists (holding just "jmp end" when the
    // source has no else clause) so the conditional branch can be
    // emitted before either body is parsed.
    ir::BlockId then_block = builder_->create_block(prefix + "_then");
    ir::BlockId else_block = builder_->create_block(prefix + "_else");
    ir::BlockId end = builder_->create_block(prefix + "_end");
    builder_->br(cond_reg, then_block, else_block);

    builder_->set_insert_point(then_block);
    parse_braced_body();
    if (!current_block_terminated()) {
      builder_->jmp(end);
    }

    builder_->set_insert_point(else_block);
    if (at_keyword("else")) {
      lex_.take();
      parse_braced_body();
      if (!current_block_terminated()) {
        builder_->jmp(end);
      }
    } else {
      builder_->jmp(end);
    }
    builder_->set_insert_point(end);
  }

  void parse_return() {
    lex_.take();  // return
    if (at_punct(";")) {
      lex_.take();
      builder_->ret();
      return;
    }
    ExprPtr value = parse_expr();
    expect_punct(";");
    builder_->ret(lower(*value));
  }

  // --- Expressions -----------------------------------------------------------

  ExprPtr parse_expr() { return parse_binary(0); }

  ExprPtr parse_binary(int level) {
    if (level >= kMaxLevel) {
      return parse_unary();
    }
    ExprPtr lhs = parse_binary(level + 1);
    while (lex_.peek().kind == TokKind::kPunct) {
      const OpLevel* match = nullptr;
      for (const OpLevel& op : kBinaryOps) {
        if (op.level == level && lex_.peek().text == op.text) {
          match = &op;
          break;
        }
      }
      if (match == nullptr) {
        break;
      }
      Token op_tok = lex_.take();
      ExprPtr rhs = parse_binary(level + 1);
      lhs = make_node(Expr::Kind::kBinary, match->op, op_tok, std::move(lhs),
                      std::move(rhs));
    }
    return lhs;
  }

  ExprPtr parse_unary() {
    if (at_punct("-") || at_punct("~")) {
      Token op_tok = lex_.take();
      const Nest nest(depth_, op_tok);
      return make_node(Expr::Kind::kUnary,
                       op_tok.text == "-" ? ir::Opcode::kNeg : ir::Opcode::kNot,
                       op_tok, parse_unary());
    }
    return parse_primary();
  }

  ExprPtr parse_primary() {
    const Token& tok = lex_.peek();
    if (tok.kind == TokKind::kInt) {
      Token lit = lex_.take();
      ExprPtr node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kInt;
      node->value = lit.value;
      node->line = lit.line;
      node->column = lit.column;
      return node;
    }
    if (tok.kind == TokKind::kIdent) {
      Token name = lex_.take();
      if (at_punct("(")) {
        return parse_builtin_call(name);
      }
      if (at_punct("[")) {
        const Nest nest(depth_, lex_.take());
        ExprPtr index = parse_expr();
        expect_punct("]");
        ExprPtr node = make_node(Expr::Kind::kIndex, ir::Opcode::kNop, name,
                                 std::move(index));
        node->name = name.text;
        return node;
      }
      ExprPtr node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kVar;
      node->name = name.text;
      node->line = name.line;
      node->column = name.column;
      return node;
    }
    if (at_punct("(")) {
      const Nest nest(depth_, lex_.take());
      ExprPtr inner = parse_expr();
      expect_punct(")");
      return inner;
    }
    fail_at(tok, "expected an expression, found " + describe_token(tok));
  }

  /// min(a, b) / max(a, b) — the only calls in the language (the IR has
  /// no call instruction; cross-function coupling is module references).
  ExprPtr parse_builtin_call(const Token& name) {
    ir::Opcode op;
    if (name.text == "min") {
      op = ir::Opcode::kMin;
    } else if (name.text == "max") {
      op = ir::Opcode::kMax;
    } else {
      fail_at(name, "unknown builtin '" + name.text +
                        "' (texpr has min(a, b) and max(a, b); there are no "
                        "user-defined calls)");
    }
    const Nest nest(depth_, expect_punct("("));
    ExprPtr a = parse_expr();
    expect_punct(",");
    ExprPtr b = parse_expr();
    expect_punct(")");
    return make_node(Expr::Kind::kBinary, op, name, std::move(a), std::move(b));
  }

  // --- Lowering --------------------------------------------------------------

  ir::Reg to_reg(ir::Operand op) {
    if (op.is_reg()) {
      return op.reg();
    }
    return builder_->const_int(op.imm());
  }

  /// Lowers `expr` to an operand, emitting instructions for every
  /// non-leaf node (no folding: the printed IR mirrors the source shape,
  /// which keeps the texpr/.tir twin programs in docs and tests honest).
  ir::Operand lower(const Expr& expr) {
    switch (expr.kind) {
      case Expr::Kind::kInt:
        return ir::IRBuilder::i(expr.value);
      case Expr::Kind::kVar:
        return ir::IRBuilder::r(lookup_name(expr));
      case Expr::Kind::kIndex: {
        ir::Operand addr = index_address(expr);
        return ir::IRBuilder::r(builder_->load(addr));
      }
      case Expr::Kind::kUnary: {
        ir::Operand a = lower(*expr.a);
        ir::Reg dest = builder_->fresh();
        builder_->assign_unary(expr.op, dest, a);
        return ir::IRBuilder::r(dest);
      }
      case Expr::Kind::kBinary: {
        ir::Operand a = lower(*expr.a);
        ir::Operand b = lower(*expr.b);
        return ir::IRBuilder::r(builder_->binary(expr.op, a, b));
      }
    }
    fail(expr.line, expr.column, "internal error: unhandled expression");
  }

  /// Lowers `expr` straight into `dest`, so `i = i + 1;` becomes the
  /// loop-carried re-definition "%i = add %i, 1" the non-SSA IR expects
  /// rather than a temp plus a mov.
  void lower_into(ir::Reg dest, const Expr& expr) {
    switch (expr.kind) {
      case Expr::Kind::kInt:
        builder_->assign_const(dest, expr.value);
        return;
      case Expr::Kind::kVar:
        builder_->assign_mov(dest, lookup_name(expr));
        return;
      case Expr::Kind::kIndex:
        builder_->assign_load(dest, index_address(expr));
        return;
      case Expr::Kind::kUnary: {
        ir::Operand a = lower(*expr.a);
        builder_->assign_unary(expr.op, dest, a);
        return;
      }
      case Expr::Kind::kBinary: {
        ir::Operand a = lower(*expr.a);
        ir::Operand b = lower(*expr.b);
        builder_->assign(expr.op, dest, a, b);
        return;
      }
    }
  }

  ir::Reg lookup_name(const Expr& expr) {
    Token tok;
    tok.kind = TokKind::kIdent;
    tok.text = expr.name;
    tok.line = expr.line;
    tok.column = expr.column;
    return lookup(tok);
  }

  /// Address of name[index]: base + index (arrays are word-addressed).
  ir::Operand index_address(const Expr& expr) {
    ir::Reg base = lookup_name(expr);
    ir::Operand index = lower(*expr.a);
    return ir::IRBuilder::r(builder_->add(ir::IRBuilder::r(base), index));
  }

  Lexer lex_;
  std::unique_ptr<ir::IRBuilder> builder_;
  std::vector<std::map<std::string, ir::Reg>> scopes_;
  int block_counter_ = 0;
  int depth_ = 0;  // levels open now (see kMaxNesting)
};

}  // namespace

std::string TexprFrontend::describe() const {
  return "thermal-expression language: fn/let/while/if, scalar and "
         "word-array arithmetic (docs/FORMATS.md)";
}

ParseResult TexprFrontend::parse(const std::string& source) const {
  try {
    Parser parser(source);
    return ParseResult::success(parser.parse_module());
  } catch (const ParseFailure& failure) {
    return ParseResult::failure(failure.diag);
  }
}

}  // namespace tadfa::frontend
