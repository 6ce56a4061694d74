// Unit tests for src/ir: instructions, functions, builder, printer/parser
// round trips, and the verifier.
#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"

namespace tadfa::ir {
namespace {

using B = IRBuilder;

Function make_loop_function() {
  Function f("loop");
  IRBuilder b(f);
  const Reg n = f.add_param();
  const auto entry = b.create_block("entry");
  const auto head = b.create_block("head");
  const auto body = b.create_block("body");
  const auto exit = b.create_block("exit");
  b.set_insert_point(entry);
  const Reg i = b.const_int(0);
  b.jmp(head);
  b.set_insert_point(head);
  const Reg c = b.cmp(Opcode::kCmpLt, B::r(i), B::r(n));
  b.br(c, body, exit);
  b.set_insert_point(body);
  b.assign(Opcode::kAdd, i, B::r(i), B::i(1));
  b.jmp(head);
  b.set_insert_point(exit);
  b.ret(B::r(i));
  return f;
}

// ---------------------------------------------------------- instruction ----

TEST(Instruction, OpcodeNamesRoundTrip) {
  for (std::size_t i = 0; i < kNumOpcodes; ++i) {
    const auto op = static_cast<Opcode>(i);
    const auto back = opcode_from_name(opcode_name(op));
    ASSERT_TRUE(back.has_value()) << opcode_name(op);
    EXPECT_EQ(*back, op);
  }
}

TEST(Instruction, UnknownMnemonicRejected) {
  EXPECT_FALSE(opcode_from_name("frobnicate").has_value());
}

TEST(Instruction, TerminatorClassification) {
  EXPECT_TRUE(is_terminator(Opcode::kBr));
  EXPECT_TRUE(is_terminator(Opcode::kJmp));
  EXPECT_TRUE(is_terminator(Opcode::kRet));
  EXPECT_FALSE(is_terminator(Opcode::kAdd));
  EXPECT_FALSE(is_terminator(Opcode::kNop));
}

TEST(Instruction, AluClassification) {
  EXPECT_TRUE(is_binary_alu(Opcode::kAdd));
  EXPECT_TRUE(is_binary_alu(Opcode::kCmpLt));
  EXPECT_FALSE(is_binary_alu(Opcode::kNeg));
  EXPECT_TRUE(is_unary_alu(Opcode::kNeg));
  EXPECT_TRUE(is_compare(Opcode::kCmpGe));
  EXPECT_FALSE(is_compare(Opcode::kAdd));
}

TEST(Instruction, UsesAndDef) {
  Instruction add(Opcode::kAdd, 5,
                  {Operand::reg(1), Operand::reg(1)});
  EXPECT_EQ(add.uses(), (std::vector<Reg>{1, 1}));  // duplicates preserved
  ASSERT_TRUE(add.def().has_value());
  EXPECT_EQ(*add.def(), 5u);
  EXPECT_EQ(add.access_count(), 3u);
}

TEST(Instruction, ImmediatesAreNotUses) {
  Instruction add(Opcode::kAdd, 2, {Operand::reg(1), Operand::imm(7)});
  EXPECT_EQ(add.uses(), (std::vector<Reg>{1}));
  EXPECT_EQ(add.access_count(), 2u);
}

TEST(Instruction, ReplaceUsesLeavesDest) {
  Instruction add(Opcode::kAdd, 1, {Operand::reg(1), Operand::reg(2)});
  add.replace_uses(1, 9);
  EXPECT_EQ(add.uses(), (std::vector<Reg>{9, 2}));
  EXPECT_EQ(*add.def(), 1u);
}

TEST(Operand, Equality) {
  EXPECT_EQ(Operand::reg(3), Operand::reg(3));
  EXPECT_FALSE(Operand::reg(3) == Operand::reg(4));
  EXPECT_EQ(Operand::imm(-1), Operand::imm(-1));
  EXPECT_FALSE(Operand::reg(0) == Operand::imm(0));
}

// ------------------------------------------------------------- function ----

TEST(Function, BlocksAndSuccessors) {
  const Function f = make_loop_function();
  EXPECT_EQ(f.block_count(), 4u);
  EXPECT_EQ(f.block(0).successors(), (std::vector<BlockId>{1}));
  EXPECT_EQ(f.block(1).successors(), (std::vector<BlockId>{2, 3}));
  EXPECT_EQ(f.block(2).successors(), (std::vector<BlockId>{1}));
  EXPECT_TRUE(f.block(3).successors().empty());
}

TEST(Function, Predecessors) {
  const Function f = make_loop_function();
  const auto preds = f.predecessors();
  EXPECT_TRUE(preds[0].empty());
  EXPECT_EQ(preds[1], (std::vector<BlockId>{0, 2}));
  EXPECT_EQ(preds[2], (std::vector<BlockId>{1}));
  EXPECT_EQ(preds[3], (std::vector<BlockId>{1}));
}

TEST(Function, InstructionCountAndRefs) {
  const Function f = make_loop_function();
  EXPECT_EQ(f.instruction_count(), 7u);
  const auto refs = f.all_instructions();
  EXPECT_EQ(refs.size(), 7u);
  EXPECT_EQ(refs.front().block, 0u);
  EXPECT_EQ(f.instruction(refs[2]).opcode(), Opcode::kCmpLt);
}

TEST(Function, StackSlotsGrowFromBase) {
  Function f("x");
  EXPECT_EQ(f.allocate_stack_slot(), Function::kStackBase);
  EXPECT_EQ(f.allocate_stack_slot(), Function::kStackBase + 1);
  EXPECT_EQ(f.stack_slot_count(), 2u);
}

TEST(Function, ParamsAreRegisters) {
  Function f("p");
  const Reg a = f.add_param();
  const Reg b = f.add_param();
  EXPECT_EQ(f.params(), (std::vector<Reg>{a, b}));
  EXPECT_EQ(f.reg_count(), 2u);
}

TEST(Module, FindByName) {
  Module m;
  m.add_function("a");
  m.add_function("b");
  EXPECT_NE(m.find("a"), nullptr);
  EXPECT_NE(m.find("b"), nullptr);
  EXPECT_EQ(m.find("c"), nullptr);
}

TEST(BasicBlock, InsertShiftsInstructions) {
  Function f("x");
  IRBuilder b(f);
  const auto blk = b.create_block();
  b.set_insert_point(blk);
  b.const_int(1);
  b.ret();
  f.block(blk).insert(0, Instruction(Opcode::kNop, kInvalidReg, {}));
  EXPECT_EQ(f.block(blk).instructions()[0].opcode(), Opcode::kNop);
  EXPECT_EQ(f.block(blk).size(), 3u);
}

// ------------------------------------------------------- printer/parser ----

TEST(PrinterParser, RoundTripLoop) {
  const Function f = make_loop_function();
  const std::string text = to_string(f);
  ParseError err;
  const auto parsed = parse_function(text, &err);
  ASSERT_TRUE(parsed.has_value()) << err.message;
  EXPECT_EQ(to_string(*parsed), text);
}

TEST(PrinterParser, ParsesNegativeImmediates) {
  const std::string text =
      "func @f() {\n"
      "entry:\n"
      "  %0 = const -42\n"
      "  ret %0\n"
      "}\n";
  const auto f = parse_function(text);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->block(0).instructions()[0].operands()[0].imm(), -42);
}

TEST(PrinterParser, ParsesForwardBranches) {
  const std::string text =
      "func @f(%0) {\n"
      "entry:\n"
      "  br %0, later, entry2\n"
      "entry2:\n"
      "  jmp later\n"
      "later:\n"
      "  ret\n"
      "}\n";
  const auto f = parse_function(text);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->block(0).terminator().targets(),
            (std::vector<BlockId>{2, 1}));
}

TEST(PrinterParser, CommentsIgnored) {
  const std::string text =
      "func @f() {\n"
      "entry: ; the entry block\n"
      "  %0 = const 1 ; one\n"
      "  ret %0\n"
      "}\n";
  const auto f = parse_function(text);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->instruction_count(), 2u);
}

TEST(PrinterParser, RejectsUnknownMnemonic) {
  ParseError err;
  const auto f = parse_function(
      "func @f() {\nentry:\n  %0 = bogus 1\n  ret\n}\n", &err);
  EXPECT_FALSE(f.has_value());
  EXPECT_NE(err.message.find("bogus"), std::string::npos);
}

TEST(PrinterParser, RejectsUnknownLabel) {
  ParseError err;
  const auto f =
      parse_function("func @f() {\nentry:\n  jmp nowhere\n}\n", &err);
  EXPECT_FALSE(f.has_value());
}

TEST(PrinterParser, RejectsDuplicateLabel) {
  ParseError err;
  const auto f = parse_function(
      "func @f() {\na:\n  ret\na:\n  ret\n}\n", &err);
  EXPECT_FALSE(f.has_value());
}

TEST(PrinterParser, ParsesMultiFunctionModule) {
  const std::string text =
      "func @a() {\nentry:\n  ret\n}\n"
      "\n"
      "func @b(%0) {\nentry:\n  ret %0\n}\n";
  const auto m = parse_module(text);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->functions().size(), 2u);
  EXPECT_EQ(m->functions()[1].params().size(), 1u);
}

TEST(PrinterParser, ModuleReferencesRoundTrip) {
  const std::string text =
      "func @a() {\nentry:\n  ret\n}\n"
      "\n"
      "func @b() {\nentry:\n  ret\n}\n"
      "\n"
      "ref @b -> @a\n";
  const auto m = parse_module(text);
  ASSERT_TRUE(m.has_value());
  ASSERT_EQ(m->references().size(), 1u);
  EXPECT_EQ(m->references()[0].from, "b");
  EXPECT_EQ(m->references()[0].to, "a");
  // Printing and reparsing must preserve the edge exactly.
  const auto again = parse_module(to_string(*m));
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->references(), m->references());
}

TEST(PrinterParser, ReferenceMayNameAFunctionDefinedLater) {
  const std::string text =
      "ref @a -> @b\n"
      "\n"
      "func @a() {\nentry:\n  ret\n}\n"
      "\n"
      "func @b() {\nentry:\n  ret\n}\n";
  const auto m = parse_module(text);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->references().size(), 1u);
  EXPECT_TRUE(verify(*m).empty());
}

TEST(PrinterParser, RejectsMalformedReference) {
  EXPECT_FALSE(parse_module("ref @a -> b\n").has_value());
  EXPECT_FALSE(parse_module("ref a -> @b\n").has_value());
  EXPECT_FALSE(parse_module("ref @a @b\n").has_value());
}

TEST(PrinterParser, AddReferenceDeduplicates) {
  Module m;
  m.add_reference("a", "b");
  m.add_reference("a", "b");
  m.add_reference("a", "c");
  EXPECT_EQ(m.references().size(), 2u);
  EXPECT_EQ(m.references_from("a").size(), 2u);
  EXPECT_TRUE(m.references_from("b").empty());
}

TEST(PrinterParser, PreservesParams) {
  const Function f = make_loop_function();
  const auto parsed = parse_function(to_string(f));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->params(), f.params());
}

// ------------------------------------------------------------- verifier ----

TEST(Verifier, AcceptsWellFormed) {
  EXPECT_TRUE(is_well_formed(make_loop_function()));
}

TEST(Verifier, RejectsReferenceToUnknownFunction) {
  const auto m = parse_module(
      "func @a() {\nentry:\n  ret\n}\n"
      "\n"
      "ref @a -> @ghost\n");
  ASSERT_TRUE(m.has_value());
  const auto issues = verify(*m);
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues.front().message.find("ghost"), std::string::npos);
}

TEST(Verifier, RejectsMissingTerminator) {
  Function f("x");
  IRBuilder b(f);
  const auto blk = b.create_block();
  b.set_insert_point(blk);
  b.const_int(1);
  EXPECT_FALSE(is_well_formed(f));
}

TEST(Verifier, RejectsOutOfRangeRegister) {
  Function f("x");
  f.add_block();
  f.block(0).append(
      Instruction(Opcode::kRet, kInvalidReg, {Operand::reg(99)}));
  EXPECT_FALSE(is_well_formed(f));
}

TEST(Verifier, RejectsBadBranchTarget) {
  Function f("x");
  f.add_block();
  f.ensure_regs(1);
  f.block(0).append(
      Instruction(Opcode::kBr, kInvalidReg, {Operand::reg(0)}, {0, 7}));
  EXPECT_FALSE(is_well_formed(f));
}

TEST(Verifier, RejectsTerminatorMidBlock) {
  Function f("x");
  f.add_block();
  f.block(0).append(Instruction(Opcode::kRet, kInvalidReg, {}));
  f.block(0).append(Instruction(Opcode::kNop, kInvalidReg, {}));
  EXPECT_FALSE(is_well_formed(f));
}

TEST(Verifier, RejectsBadArity) {
  Function f("x");
  f.add_block();
  f.ensure_regs(2);
  // add with one operand
  f.block(0).append(Instruction(Opcode::kAdd, 0, {Operand::reg(1)}));
  f.block(0).append(Instruction(Opcode::kRet, kInvalidReg, {}));
  EXPECT_FALSE(is_well_formed(f));
}

TEST(Verifier, RejectsEmptyFunction) {
  Function f("x");
  EXPECT_FALSE(is_well_formed(f));
}

TEST(Verifier, RejectsStoreWithDest) {
  Function f("x");
  f.add_block();
  f.ensure_regs(2);
  f.block(0).append(Instruction(Opcode::kStore, 0,
                                {Operand::imm(0), Operand::reg(1)}));
  f.block(0).append(Instruction(Opcode::kRet, kInvalidReg, {}));
  EXPECT_FALSE(is_well_formed(f));
}

// -------------------------------------------------------------- builder ----

TEST(Builder, FreshRegistersAreDistinct) {
  Function f("x");
  IRBuilder b(f);
  const auto blk = b.create_block();
  b.set_insert_point(blk);
  const Reg a = b.const_int(1);
  const Reg c = b.const_int(2);
  EXPECT_NE(a, c);
  b.ret();
  EXPECT_TRUE(is_well_formed(f));
}

TEST(Builder, InPlaceAssignReusesRegister) {
  Function f("x");
  IRBuilder b(f);
  const auto blk = b.create_block();
  b.set_insert_point(blk);
  const Reg i = b.const_int(0);
  b.assign(Opcode::kAdd, i, B::r(i), B::i(1));
  b.ret(B::r(i));
  const auto& inst = f.block(blk).instructions()[1];
  EXPECT_EQ(*inst.def(), i);
  EXPECT_EQ(inst.uses(), (std::vector<Reg>{i}));
}

TEST(Builder, EmitsAllBinaryOps) {
  Function f("x");
  IRBuilder b(f);
  const auto blk = b.create_block();
  b.set_insert_point(blk);
  const Reg a = b.const_int(6);
  const Reg c = b.const_int(3);
  b.add(B::r(a), B::r(c));
  b.sub(B::r(a), B::r(c));
  b.mul(B::r(a), B::r(c));
  b.div(B::r(a), B::r(c));
  b.rem(B::r(a), B::r(c));
  b.band(B::r(a), B::r(c));
  b.bor(B::r(a), B::r(c));
  b.bxor(B::r(a), B::r(c));
  b.shl(B::r(a), B::r(c));
  b.shr(B::r(a), B::r(c));
  b.minv(B::r(a), B::r(c));
  b.maxv(B::r(a), B::r(c));
  b.neg(B::r(a));
  b.bnot(B::r(a));
  b.ret();
  EXPECT_TRUE(is_well_formed(f));
  EXPECT_EQ(f.instruction_count(), 17u);
}

}  // namespace
}  // namespace tadfa::ir

// Appended: printer/parser round-trip property over generated programs.
#include "workload/random_program.hpp"

namespace tadfa::ir {
namespace {

class RoundTripTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoundTripTest, RandomProgramsRoundTripExactly) {
  workload::RandomProgramConfig cfg;
  cfg.seed = GetParam();
  cfg.target_instructions = 120;
  cfg.irregularity = (GetParam() % 3) / 2.0;
  const Function f = workload::random_program(cfg);
  const std::string text = to_string(f);
  ParseError err;
  const auto parsed = parse_function(text, &err);
  ASSERT_TRUE(parsed.has_value()) << err.message << "\n" << text;
  EXPECT_EQ(to_string(*parsed), text);
  EXPECT_EQ(parsed->instruction_count(), f.instruction_count());
  EXPECT_EQ(parsed->block_count(), f.block_count());
  EXPECT_EQ(parsed->params(), f.params());
  EXPECT_TRUE(is_well_formed(*parsed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripTest,
                         ::testing::Values(3, 14, 159, 2653, 58979, 323846,
                                           2643383, 27950288));

}  // namespace
}  // namespace tadfa::ir

// Pins of the text format: the printed bytes of a corpus, its round trip,
// and every diagnostic the parser emits with its line. The digest and the
// messages are cache and protocol contract (a stage record stores printed
// text, a served error carries the diagnostic), so none may move.
#include <algorithm>
#include <iterator>

#include "frontend/frontend.hpp"
#include "support/rng.hpp"
#include "support/serialize.hpp"
#include "workload/kernels.hpp"
#include "workload/modules.hpp"

namespace tadfa::ir {
namespace {

/// Every opcode, both immediate extremes, the largest register number,
/// a forward branch and a parameter list.
constexpr const char* kEveryOpcode =
    "func @every(%0, %4294967294) {\n"
    "entry:\n"
    "  %1 = const -9223372036854775808\n"
    "  %2 = const 9223372036854775807\n"
    "  %3 = mov %1\n"
    "  %4 = add %1, %2\n"
    "  %5 = sub %4, 0\n"
    "  %6 = mul %5, -1\n"
    "  %7 = div %6, 3\n"
    "  %8 = rem %7, 3\n"
    "  %9 = and %8, %0\n"
    "  %10 = or %9, 1\n"
    "  %11 = xor %10, %10\n"
    "  %12 = shl %11, 2\n"
    "  %13 = shr %12, 1\n"
    "  %14 = neg %13\n"
    "  %15 = not %14\n"
    "  %16 = min %15, %4294967294\n"
    "  %17 = max %16, 0\n"
    "  %18 = cmpeq %17, 0\n"
    "  %19 = cmpne %17, 0\n"
    "  %20 = cmplt %17, %18\n"
    "  %21 = cmple %17, %19\n"
    "  %22 = cmpgt %20, %21\n"
    "  %23 = cmpge %22, 1\n"
    "  %24 = load %0\n"
    "  store %0, %24\n"
    "  nop\n"
    "  br %23, exit, loop\n"
    "loop:\n"
    "  jmp exit\n"
    "exit:\n"
    "  ret %3\n"
    "}\n"
    "\n"
    "func @void() {\n"
    "entry:\n"
    "  ret\n"
    "}\n"
    "\n"
    "ref @void -> @every\n";

/// A texpr loop nest `depth` deep with a branch and builtins inside.
std::string texpr_nest(int depth) {
  const std::string d = std::to_string(depth);
  std::string src = "fn nest" + d + "(x, n) {\n  let acc = -" + d + ";\n";
  for (int l = 0; l < depth; ++l) {
    src += "  let i" + std::to_string(l) + " = 0;\n";
  }
  std::string indent = "  ";
  for (int l = 0; l < depth; ++l) {
    const std::string i = "i" + std::to_string(l);
    if (l > 0) {
      src += indent + i + " = 0;\n";
    }
    src += indent + "while (" + i + " < n) {\n";
    indent += "  ";
  }
  src += indent + "if (acc % 2 == 0) { acc = acc + x[i0] * " + d +
         "; } else { acc = min(acc, max(x[i0], ~acc)) - 1; }\n";
  for (int l = depth - 1; l >= 0; --l) {
    const std::string i = "i" + std::to_string(l);
    src += indent + i + " = " + i + " + 1;\n";
    indent.resize(indent.size() - 2);
    src += indent + "}\n";
  }
  return src + "  return acc;\n}\n";
}

/// The modules whose printed text is pinned: mixed modules with `ref`
/// edges on three seeds, every named kernel, lowered texpr nests, and
/// kEveryOpcode.
std::vector<Module> corpus_modules() {
  std::vector<Module> modules;
  for (const std::uint64_t seed : {1, 7, 12345}) {
    workload::ModuleConfig cfg;
    cfg.functions = 24;
    cfg.seed = seed;
    modules.push_back(workload::make_mixed_module(cfg));
  }
  Module kernels;
  for (workload::Kernel& k : workload::standard_suite()) {
    kernels.add_function(std::move(k.func));
  }
  modules.push_back(std::move(kernels));
  std::string nests;
  for (int depth = 1; depth <= 5; ++depth) {
    nests += texpr_nest(depth);
  }
  auto lowered = frontend::find_frontend("texpr")->parse(nests);
  EXPECT_TRUE(lowered.ok()) << lowered.diagnostics_text();
  if (lowered.ok()) {
    modules.push_back(std::move(*lowered.module));
  }
  auto every = parse_module(kEveryOpcode);
  EXPECT_TRUE(every.has_value());
  if (every.has_value()) {
    modules.push_back(std::move(*every));
  }
  return modules;
}

TEST(TextFormat, CorpusPrintsRecordedBytesAndRoundTrips) {
  Hasher h;
  std::size_t functions = 0;
  for (const Module& module : corpus_modules()) {
    const std::string text = to_string(module);
    h.mix(std::string_view{text});
    ParseError err;
    const auto parsed = parse_module(text, &err);
    ASSERT_TRUE(parsed.has_value()) << err.line << ": " << err.message;
    EXPECT_EQ(to_string(*parsed), text);
    EXPECT_EQ(parsed->references(), module.references());
    ASSERT_EQ(parsed->size(), module.size());
    for (std::size_t i = 0; i < module.size(); ++i) {
      const Function& original = module.functions()[i];
      Function reread = parsed->functions()[i];
      // The text names every register it uses, not the allocated count.
      reread.ensure_regs(original.reg_count());
      EXPECT_EQ(fingerprint(reread), fingerprint(original)) << original.name();
      const std::string one = to_string(original);
      const auto alone = parse_function(one, &err);
      ASSERT_TRUE(alone.has_value()) << err.line << ": " << err.message;
      EXPECT_EQ(to_string(*alone), one);
      ++functions;
    }
  }
  EXPECT_EQ(functions, 24u * 3 + workload::standard_suite().size() + 5 + 2);
  EXPECT_EQ(h.digest(), 0xee757ea02690632aull);
}

TEST(TextFormat, EveryOpcodeTextIsCanonical) {
  const auto m = parse_module(kEveryOpcode);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(to_string(*m), kEveryOpcode);
  EXPECT_EQ(m->functions()[0].reg_count(), 4294967295u);
}

struct Diagnosed {
  const char* text;
  std::size_t line;
  const char* message;
};

// One row per diagnostic parse_module emits, and rows that pin which of
// two errors wins.
constexpr Diagnosed kDiagnostics[] = {
    // Module level: a `ref` line, else a function header.
    {"ref @a @b\n", 1, "expected 'ref @from -> @to'"},
    {"ref @a -> b\n", 1, "expected 'ref @from -> @to'"},
    {"\n\nref a -> @b\n", 3, "expected 'ref @from -> @to'"},
    {"ref @ -> @b\n", 1, "expected 'ref @from -> @to'"},
    {"ref\t@a -> @b\n", 1, "expected 'func @name(...) {'"},
    {"fn @f() {\n", 1, "expected 'func @name(...) {'"},
    {"func @f {\n", 1, "missing '(' in function header"},
    {"func @ {\n", 1, "missing '(' in function header"},
    {"func @(%0) {\n", 1, "empty function name"},
    {"func @ (x {\n", 1, "empty function name"},
    {"func @f(%0 {\n", 1, "missing ')' in function header"},
    {"func @f()\n", 1, "expected '{' after parameter list"},
    {"func @f() { x\n", 1, "expected '{' after parameter list"},
    {"func @f(%0, x) {\n", 1, "bad parameter ' x'"},
    {"func @f(%0,) {\n", 1, "bad parameter ''"},
    {"func @f(%-1) {\n", 1, "bad parameter '%-1'"},
    {"func @f(%) {\n", 1, "bad parameter '%'"},
    {"func @f(%1x) {\n}\n", 1, "bad parameter '%1x'"},
    // The body, then what is checked after its '}'.
    {"func @f() {\nentry:\n  ret\n", 5, "missing closing '}'"},
    {"func @f() {\nentry:\n  ret", 4, "missing closing '}'"},
    {"func @f() {\n}\n", 3, "function has no blocks"},
    {"func @f() {\n\n  ret\n}\n", 3, "instruction before first block label"},
    {"func @f() {\na:\n  ret\na:\n  ret\n}\n", 7, "duplicate block label 'a'"},
    {"func @f() {\na:\n  ret\nb:\n  ret\nb:\n  ret\n}\n\nfunc @g() {\n", 9,
     "duplicate block label 'b'"},
    {"func @f() {\nentry:\n  jmp nowhere\n}\n", 3,
     "unknown block label 'nowhere'"},
    {"func @f() {\nentry:\n  %x = const 1\n  ret\n}\n", 3,
     "bad destination register"},
    {"func @f() {\nentry:\n  %1 %2 = add %0, 1\n}\n", 3,
     "bad destination register"},
    {"func @f() {\nentry:\n  %0 = bogus 1\n  ret\n}\n", 3,
     "unknown mnemonic 'bogus'"},
    {"func @f() {\nentry:\n  %0 =\n}\n", 3, "unknown mnemonic ''"},
    {"func @f() {\na:\n  ret\nentry :\n}\n", 4, "unknown mnemonic 'entry'"},
    {"func @f() {\nentry:\n  ret\nfunc @g() {\n", 4, "unknown mnemonic 'func'"},
    {"func @f() {\nentry:\n  %0 = add %1,\n  ret\n}\n", 3, "empty operand"},
    {"func @f() {\nentry:\n  %0 = add %1, , 2\n  ret\n}\n", 3,
     "empty operand"},
    // Precedence: any line's error beats every check after '}', a
    // duplicate label beats an unknown one, and the first unknown label in
    // text order is the one named.
    {"func @f() {\nentry:\n  jmp zz\nb:\n  %0 = bogus\n}\n", 5,
     "unknown mnemonic 'bogus'"},
    {"func @f() {\na:\n  jmp zz\na:\n  ret\n}\n", 7,
     "duplicate block label 'a'"},
    {"func @f() {\na:\n  jmp b\nb:\n  br %0, zz, yy\nc:\n  jmp xx\n}\n", 5,
     "unknown block label 'zz'"},
    {"func @f() {\nentry:\n  jmp x\n}\n\nfunc @g() {\n}\n", 3,
     "unknown block label 'x'"},
    // Quirks kept: the text after the first '=' is the instruction, the
    // mnemonic ends at the first space, and a bad register is a label.
    {"func @f() {\nentry:\n  %1 = %2 = add %0, 1\n}\n", 3,
     "unknown mnemonic '%2'"},
    {"func @f() {\nentry:\n  %2 = add\t%1, %0\n}\n", 3,
     "unknown mnemonic 'add\t%1,'"},
    {"func @f() {\nentry:\n  ret %-1\n}\n", 3, "unknown block label '%-1'"},
    {"func @f() {\nentry:\n  ret %x\n}\n", 3, "unknown block label '%x'"},
    {"func @f() {\nentry:\n  ret 0x10\n}\n", 3, "unknown block label '0x10'"},
    // A register number past 2^32 - 2 (2^32 - 1 is kInvalidReg) or an
    // immediate past int64, in any position. These once aborted the
    // process on an assertion, aliased a lower register, or saturated.
    {"func @f(%0) {\nentry:\n  ret %4294967295\n}\n", 3,
     "number out of range '%4294967295'"},
    {"func @f(%0) {\nentry:\n  %4294967295 = add %0, 1\n}\n", 3,
     "number out of range '%4294967295'"},
    {"func @f(%4294967295) {\n", 1, "number out of range '%4294967295'"},
    {"func @f(%0) {\nentry:\n  %4294967296 = add %0, 1\n  ret %0\n}\n", 3,
     "number out of range '%4294967296'"},
    {"func @f(%0) {\nentry:\n  %1 = add %4294967297, 1\n  ret %1\n}\n", 3,
     "number out of range '%4294967297'"},
    {"func @f(%0, % 4294967296) {\n", 1,
     "number out of range '% 4294967296'"},
    {"func @f(%0) {\nentry:\n  ret %18446744073709551616\n}\n", 3,
     "number out of range '%18446744073709551616'"},
    {"func @f(%0) {\nentry:\n  ret %-99999999999999999999\n}\n", 3,
     "number out of range '%-99999999999999999999'"},
    {"func @f(%0) {\nentry:\n"
     "  %1 = add %0, 99999999999999999999\n  ret %1\n}\n",
     3, "number out of range '99999999999999999999'"},
    {"func @f(%0) {\nentry:\n"
     "  %1 = add %0, -9223372036854775809\n  ret %1\n}\n",
     3, "number out of range '-9223372036854775809'"},
    {"func @f(%0) {\nentry:\n  br %0, a, 9223372036854775808\na:\n}\n", 3,
     "number out of range '9223372036854775808'"},
};

TEST(TextFormat, DiagnosticsKeepTheirLineAndMessage) {
  for (const Diagnosed& row : kDiagnostics) {
    ParseError err;
    EXPECT_FALSE(parse_module(row.text, &err).has_value()) << row.text;
    EXPECT_EQ(err.line, row.line) << row.text;
    EXPECT_EQ(err.message, row.message) << row.text;
  }
}

TEST(TextFormat, ParseFunctionWantsExactlyOneFunction) {
  for (const char* text :
       {"", "ref @a -> @b\n",
        "func @a() {\nentry:\n  ret\n}\nfunc @b() {\nentry:\n  ret\n}\n"}) {
    ParseError err;
    EXPECT_FALSE(parse_function(text, &err).has_value()) << text;
    EXPECT_EQ(err.line, 0u) << text;
    EXPECT_EQ(err.message, "expected exactly one function") << text;
  }
}

struct Accepted {
  const char* text;
  const char* printed;
};

// Texts that parse, with the canonical text they print as.
constexpr Accepted kAccepted[] = {
    // strtoll's leading white space and sign are kept inside a register.
    {"func @f(%+1) {\nentry:\n  %+5 = add % 1, %\t2\n  ret %5\n}\n",
     "func @f(%1) {\nentry:\n  %5 = add %1, %2\n  ret %5\n}\n"},
    {"func @f() {\nentry:\n  %0 = const +7\n  ret %0\n}\n",
     "func @f() {\nentry:\n  %0 = const 7\n  ret %0\n}\n"},
    // Comments, blank lines, CRLF and free spacing.
    {"; lead\n\n func @ f ( %0 , %1 ) { ; c\r\nentry: ; c\r\n\n"
     "   %2   =   add   %0 ,  %1  \r\n  ret %2\n}\r\n\n",
     "func @f(%0, %1) {\nentry:\n  %2 = add %0, %1\n  ret %2\n}\n"},
    // Labels are any text ending in ':' with no space; references are
    // printed after the functions; duplicate references fold.
    {"ref @b -> @a\nref @b -> @a\nfunc @a() {\nx=y:\n  jmp x=y\n}\n",
     "func @a() {\nx=y:\n  jmp x=y\n}\n\nref @b -> @a\n"},
    // Register and immediate tokens interleaved with targets.
    {"func @f(%0) {\na:\n  br a, %0, b\nb:\n  ret\n}\n",
     "func @f(%0) {\na:\n  br %0, a, b\nb:\n  ret\n}\n"},
};

TEST(TextFormat, AcceptedTextsPrintCanonically) {
  for (const Accepted& row : kAccepted) {
    ParseError err;
    const auto m = parse_module(row.text, &err);
    ASSERT_TRUE(m.has_value()) << row.text << "\n" << err.line << ": "
                               << err.message;
    EXPECT_EQ(to_string(*m), row.printed) << row.text;
  }
}


// --- Seeded mutation harness ----------------------------------------------
// Printed corpus texts, mutated a few thousand times from a fixed seed:
// whatever the bytes, parse_module returns a module or a diagnostic, and
// a module prints to text that parses and prints to the same bytes.

/// Numbers at the edges of a register (0..2^32-2) and of an int64.
constexpr const char* kInflated[] = {
    "4294967294",          "4294967295",          "4294967296",
    "9223372036854775807", "9223372036854775808", "18446744073709551616",
    "99999999999999999999"};

/// Applies one random edit: a byte flip, a deleted or duplicated line, a
/// truncation, or a digit run inflated to a boundary value.
void mutate(std::string& text, Rng& rng) {
  if (text.empty()) {
    text = "0";
  }
  const std::size_t at = rng.index(text.size());
  // The line holding `at`, with its '\n'.
  const std::size_t nl = at == 0 ? std::string::npos : text.rfind('\n', at - 1);
  const std::size_t line = nl == std::string::npos ? 0 : nl + 1;
  const std::size_t line_size =
      std::min(text.find('\n', at), text.size() - 1) + 1 - line;
  switch (rng.below(5)) {
    case 0:
      text[at] = static_cast<char>(rng.below(256));
      break;
    case 1:
      text.erase(line, line_size);
      break;
    case 2:
      text.insert(line, text.substr(line, line_size));
      break;
    case 3:
      text.resize(at);
      break;
    default: {
      constexpr const char* kDigits = "0123456789";
      std::size_t b = text.find_first_of(kDigits, at);
      if (b == std::string::npos) {
        b = text.find_first_of(kDigits);
      }
      if (b != std::string::npos) {
        const std::size_t e =
            std::min(text.find_first_not_of(kDigits, b), text.size());
        text.replace(b, e - b, kInflated[rng.index(std::size(kInflated))]);
      }
      break;
    }
  }
}

TEST(TextMutation, MutantsParseOrFailCleanlyAndAcceptedOnesRoundTrip) {
  std::vector<std::string> corpus;
  for (const Module& module : corpus_modules()) {
    for (const Function& f : module.functions()) {
      corpus.push_back(to_string(f));
    }
  }
  corpus.push_back(kEveryOpcode);
  Rng rng(0x5eed7e57);
  std::size_t accepted = 0;
  for (int i = 0; i < 4000; ++i) {
    std::string text = corpus[rng.index(corpus.size())];
    const std::uint64_t edits = 1 + rng.below(3);
    for (std::uint64_t e = 0; e < edits; ++e) {
      mutate(text, rng);
    }
    ParseError err;
    const auto m = parse_module(text, &err);
    if (!m.has_value()) {
      EXPECT_GE(err.line, 1u) << text;
      EXPECT_FALSE(err.message.empty()) << text;
      continue;
    }
    ++accepted;
    const std::string printed = to_string(*m);
    const auto again = parse_module(printed, &err);
    ASSERT_TRUE(again.has_value())
        << text << "\nprinted as\n" << printed << err.line << ": "
        << err.message;
    EXPECT_EQ(to_string(*again), printed) << text;
  }
  // The accepting path is reached too: 905 of the 4,000 mutants parse.
  EXPECT_GT(accepted, 500u);
}

}  // namespace
}  // namespace tadfa::ir
