// Tests for src/frontend — the multi-source ingestion seam. The
// load-bearing contract: every frontend returns a module or positioned
// diagnostics, never both and never neither; a malformed or truncated
// source must never crash a parser or yield a silent empty module; and
// registry lookups are stable, since CLI flags and wire requests
// address frontends by name.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "frontend/frontend.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "sim/interpreter.hpp"

namespace tadfa::frontend {
namespace {

const Frontend& fe(const std::string& name) {
  const Frontend* found = find_frontend(name);
  EXPECT_NE(found, nullptr) << name;
  return *found;
}

/// The ParseResult contract all frontend tests lean on.
void expect_well_formed_outcome(const ParseResult& r,
                                const std::string& label) {
  if (r.ok()) {
    EXPECT_FALSE(r.module->empty()) << label << ": silent empty module";
    EXPECT_TRUE(ir::verify(*r.module).empty()) << label;
  } else {
    ASSERT_FALSE(r.diagnostics.empty()) << label << ": failure without "
                                                    "diagnostics";
    EXPECT_FALSE(r.diagnostics.front().message.empty()) << label;
  }
}

TEST(Registry, DefaultRegistryNamesAndOrder) {
  const std::vector<std::string> names = default_frontend_registry().names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "tir");
  EXPECT_EQ(names[1], "kernels");
  EXPECT_EQ(names[2], "texpr");
  for (const std::string& name : names) {
    ASSERT_NE(find_frontend(name), nullptr);
    EXPECT_EQ(find_frontend(name)->name(), name);
    EXPECT_FALSE(find_frontend(name)->describe().empty());
  }
  EXPECT_EQ(find_frontend("fortran"), nullptr);
  EXPECT_EQ(find_frontend(""), nullptr);
}

TEST(Registry, DiagnosticFormatting) {
  Diagnostic positioned{3, 7, "expected ';'"};
  EXPECT_EQ(positioned.to_string(), "line 3:7: expected ';'");
  Diagnostic line_only{3, 0, "bad block"};
  EXPECT_EQ(line_only.to_string(), "line 3: bad block");
  Diagnostic bare{0, 0, "empty source"};
  EXPECT_EQ(bare.to_string(), "empty source");
}

TEST(TirFrontend, ParsesCanonicalText) {
  const auto r = fe("tir").parse(
      "func @f(%0) {\nentry:\n  %1 = add %0, 1\n  ret %1\n}\n");
  ASSERT_TRUE(r.ok()) << r.diagnostics_text();
  EXPECT_EQ(r.module->size(), 1u);
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(TirFrontend, PositionsParseErrors) {
  const auto r = fe("tir").parse("func @f(%0) {\nentry:\n  %1 = bogus\n}\n");
  ASSERT_FALSE(r.ok());
  EXPECT_FALSE(r.module.has_value());
  ASSERT_FALSE(r.diagnostics.empty());
  EXPECT_EQ(r.diagnostics.front().line, 3u);
  // The tir parser reports lines, not columns; "line N: msg" is the
  // exact legacy server error shape.
  EXPECT_EQ(r.diagnostics.front().column, 0u);
  EXPECT_NE(r.diagnostics.front().to_string().find("line 3: "),
            std::string::npos);
}

TEST(TirFrontend, EmptyModuleIsAnError) {
  const auto r = fe("tir").parse("; only a comment\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.diagnostics_text().find("no functions"), std::string::npos);
}

TEST(KernelFrontend, KernelNameAndSuite) {
  const auto one = fe("kernels").parse("crc32");
  ASSERT_TRUE(one.ok()) << one.diagnostics_text();
  EXPECT_EQ(one.module->size(), 1u);
  EXPECT_EQ(one.module->functions().front().name(), "crc32");

  const auto suite = fe("kernels").parse("suite");
  ASSERT_TRUE(suite.ok()) << suite.diagnostics_text();
  EXPECT_GT(suite.module->size(), 5u);
}

TEST(KernelFrontend, MixedSpecIsDeterministic) {
  const auto a = fe("kernels").parse("mixed:functions=6,seed=9");
  const auto b = fe("kernels").parse("mixed:functions=6,seed=9");
  ASSERT_TRUE(a.ok()) << a.diagnostics_text();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.module->size(), 6u);
  EXPECT_EQ(ir::to_string(*a.module), ir::to_string(*b.module));
}

TEST(KernelFrontend, PositionsUnknownNames) {
  const auto r = fe("kernels").parse("crc32 nonsense");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.diagnostics_text().find("nonsense"), std::string::npos);
  EXPECT_GT(r.diagnostics.front().column, 1u);
}

TEST(KernelFrontend, RejectsBadMixedValues) {
  for (const std::string bad :
       {"mixed:functions=0", "mixed:functions=x", "mixed:bogus=1", ""}) {
    const auto r = fe("kernels").parse(bad);
    EXPECT_FALSE(r.ok()) << bad;
    expect_well_formed_outcome(r, bad);
  }
}

constexpr const char* kTexprProgram = R"(# sum of squares
fn sumsq(n) {
  let acc = 0;
  let i = 0;
  while (i < n) {
    acc = acc + i * i;
    i = i + 1;
  }
  return acc;
}
)";

TEST(TexprFrontend, LowersAndRuns) {
  const auto r = fe("texpr").parse(kTexprProgram);
  ASSERT_TRUE(r.ok()) << r.diagnostics_text();
  ASSERT_EQ(r.module->size(), 1u);
  const ir::Function& f = r.module->functions().front();
  EXPECT_TRUE(ir::verify(*r.module).empty()) << ir::to_string(f);
  machine::TimingModel timing;
  sim::Interpreter interp(f, timing);
  const auto run = interp.run(std::vector<std::int64_t>{5});
  ASSERT_TRUE(run.ok()) << run.trap.value_or("?");
  EXPECT_EQ(run.return_value.value_or(-1), 0 + 1 + 4 + 9 + 16);
}

struct DiagnosticCase {
  const char* label;
  const char* source;
  std::size_t line;
  const char* needle;
};

class TexprDiagnostics : public ::testing::TestWithParam<DiagnosticCase> {};

TEST_P(TexprDiagnostics, PositionsTheError) {
  const DiagnosticCase& c = GetParam();
  const auto r = fe("texpr").parse(c.source);
  ASSERT_FALSE(r.ok()) << c.label;
  ASSERT_FALSE(r.diagnostics.empty()) << c.label;
  const Diagnostic& d = r.diagnostics.front();
  EXPECT_EQ(d.line, c.line) << c.label << ": " << d.to_string();
  EXPECT_GT(d.column, 0u) << c.label << ": " << d.to_string();
  EXPECT_NE(d.message.find(c.needle), std::string::npos)
      << c.label << ": " << d.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Sources, TexprDiagnostics,
    ::testing::Values(
        DiagnosticCase{"unknown-variable",
                       "fn f(n) {\n  return n + zork;\n}\n", 2, "zork"},
        DiagnosticCase{"missing-semicolon",
                       "fn f(n) {\n  let a = 1\n  return a;\n}\n", 3, "';'"},
        DiagnosticCase{"unclosed-paren",
                       "fn f(n) {\n  return (n + 1;\n}\n", 2, "')'"},
        DiagnosticCase{"bad-token", "fn f(n) {\n  return n $ 2;\n}\n", 2,
                       "$"},
        DiagnosticCase{"duplicate-function",
                       "fn f(n) { return n; }\nfn f(n) { return n; }\n", 2,
                       "f"},
        DiagnosticCase{"duplicate-let",
                       "fn f(n) {\n  let a = 1;\n  let a = 2;\n  return a;\n}"
                       "\n",
                       3, "a"},
        DiagnosticCase{"statement-after-return",
                       "fn f(n) {\n  return n;\n  let a = 1;\n  return a;\n}"
                       "\n",
                       3, "unreachable"},
        DiagnosticCase{"overflow-literal",
                       "fn f(n) {\n  return 99999999999999999999;\n}\n", 2,
                       "integer"}));

TEST(TexprFrontend, EmptySourceIsAnError) {
  for (const std::string source : {"", "  \n\n", "# just a comment\n"}) {
    const auto r = fe("texpr").parse(source);
    ASSERT_FALSE(r.ok());
    expect_well_formed_outcome(r, "'" + source + "'");
  }
}

// The truncation sweep: parsing every byte-prefix of a valid program
// must never crash and must always honor the ParseResult contract. This
// is the cheapest fuzz there is, and it catches exactly the bugs a
// hand-written error-path test misses (EOF inside a token, inside a
// block, between '}' and EOF...).
TEST(TexprFrontend, TruncationSweepNeverCrashes) {
  const std::string program = kTexprProgram;
  for (std::size_t len = 0; len <= program.size(); ++len) {
    const std::string prefix = program.substr(0, len);
    const auto r = fe("texpr").parse(prefix);
    expect_well_formed_outcome(r, "prefix len " + std::to_string(len));
    if (len < program.size() - 1) {
      // Nothing short of the full program parses: the program has no
      // earlier point at which it is complete.
      EXPECT_FALSE(r.ok()) << "prefix len " << len << " parsed";
    }
  }
  EXPECT_TRUE(fe("texpr").parse(program).ok());
}

// The parser and the lowering recurse once per nesting level, so source
// nested past the limit must be a positioned diagnostic, never a stack
// overflow. The function body is the first of the 256 levels, and an
// operator chain nests once per operator.
TEST(TexprFrontend, NestingPastTheLimitIsADiagnostic) {
  // Each shape is prefix + open^n + inner + close^n + suffix.
  struct Shape {
    const char* label;
    const char* prefix;
    const char* open;
    const char* inner;
    const char* close;
    const char* suffix;
  };
  const Shape shapes[] = {
      {"parens", "fn g(a) { return ", "(", "a", ")", "; }"},
      {"negations", "fn g(a) { return ", "-", "a", "", "; }"},
      {"brackets", "fn g(a) { return ", "a[", "0", "]", "; }"},
      {"min-calls", "fn g(a) { return ", "min(a, ", "a", ")", "; }"},
      {"operator-chain", "fn g(a) { return a", "", "", " + a", "; }"},
      {"while-nest", "fn g(a) {\n", "while (a < 0) {\n", "a = a + 1;\n", "}\n",
       "return a;\n}\n"},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.label);
    auto source = [&](int n) {
      std::string src = shape.prefix;
      for (int i = 0; i < n; ++i) {
        src += shape.open;
      }
      src += shape.inner;
      for (int i = 0; i < n; ++i) {
        src += shape.close;
      }
      return src + shape.suffix;
    };
    const auto at_limit = fe("texpr").parse(source(255));
    EXPECT_TRUE(at_limit.ok()) << at_limit.diagnostics_text();
    expect_well_formed_outcome(at_limit, "at the limit");
    for (int n : {256, 100000}) {
      const auto r = fe("texpr").parse(source(n));
      ASSERT_FALSE(r.ok()) << n;
      expect_well_formed_outcome(r, std::to_string(n));
      const std::string& message = r.diagnostics.front().message;
      EXPECT_NE(message.find("nesting deeper than 256 levels"),
                std::string::npos)
          << r.diagnostics_text();
    }
  }
  // The diagnostic sits at the token that opens the 257th level.
  const std::string head = "fn g(a) { return ";
  const auto parens = fe("texpr").parse(head + std::string(300, '(') + "a" +
                                        std::string(300, ')') + "; }");
  ASSERT_FALSE(parens.ok());
  EXPECT_EQ(parens.diagnostics.front().column, head.size() + 256);
}

TEST(TirFrontend, TruncationSweepNeverCrashes) {
  const std::string program =
      "func @f(%0) {\nentry:\n  %1 = add %0, 1\n  br %1, b, c\nb:\n  ret "
      "%1\nc:\n  ret %0\n}\n";
  ASSERT_TRUE(fe("tir").parse(program).ok());
  for (std::size_t len = 0; len <= program.size(); ++len) {
    expect_well_formed_outcome(fe("tir").parse(program.substr(0, len)),
                               "prefix len " + std::to_string(len));
  }
}

}  // namespace
}  // namespace tadfa::frontend
