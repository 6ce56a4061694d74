// Subprocess tests for the tadfa CLI's failure behavior: any exception
// escaping a command path must surface as "tadfa: error: <what>" with
// exit status 1 — never as std::terminate/SIGABRT with no diagnostic.
//
// The binary's path arrives via the TADFA_CLI_PATH compile definition
// (see CMakeLists.txt); without it the suite compiles to a skip.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace {

struct RunResult {
  bool exited = false;  // normal exit, not a signal
  int status = -1;
  std::string stdout_text;
  std::string stderr_text;
};

std::string read_and_remove(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  in.close();
  std::filesystem::remove(path);
  return buffer.str();
}

RunResult run_cli(const std::string& args) {
#ifndef TADFA_CLI_PATH
  ADD_FAILURE() << "TADFA_CLI_PATH not defined";
  return {};
#else
  const auto base = std::filesystem::temp_directory_path() /
                    ("tadfa-cli-test-" + std::to_string(::getpid()));
  const auto out_path = base.string() + ".stdout";
  const auto err_path = base.string() + ".stderr";
  const std::string command = std::string(TADFA_CLI_PATH) + " " + args +
                              " >" + out_path + " 2>" + err_path;
  const int raw = std::system(command.c_str());
  RunResult result;
  result.exited = WIFEXITED(raw);
  result.status = result.exited ? WEXITSTATUS(raw) : -1;
  result.stdout_text = read_and_remove(out_path);
  result.stderr_text = read_and_remove(err_path);
  return result;
#endif
}

TEST(CliTest, EscapedExceptionBecomesDiagnosticAndExit1) {
  const RunResult r = run_cli("--self-test-throw");
  ASSERT_TRUE(r.exited) << "CLI died of a signal instead of exiting";
  EXPECT_EQ(r.status, 1);
  EXPECT_NE(r.stderr_text.find("tadfa: error: self-test exception"),
            std::string::npos)
      << r.stderr_text;
}

TEST(CliTest, UnknownInputFailsCleanly) {
  const RunResult r = run_cli("no-such-kernel-or-file.tir");
  ASSERT_TRUE(r.exited);
  EXPECT_EQ(r.status, 1);
  EXPECT_NE(r.stderr_text.find("neither a known kernel"), std::string::npos)
      << r.stderr_text;
}

TEST(CliTest, UncreatableCacheDirFailsCleanly) {
  // /dev/null/x cannot be a directory: the cache constructor reports it
  // and the CLI exits 1 with a diagnostic — under the old unwrapped
  // main a filesystem exception here would have aborted.
  const RunResult r = run_cli(
      "--cache-dir=/dev/null/x --pipeline=dce crc32 fir");
  ASSERT_TRUE(r.exited) << "CLI died of a signal instead of exiting";
  EXPECT_EQ(r.status, 1);
  EXPECT_FALSE(r.stderr_text.empty());
}

TEST(CliTest, ClientWithoutServerFailsCleanly) {
  const RunResult r = run_cli("client --socket=/nonexistent/tadfa.sock crc32");
  ASSERT_TRUE(r.exited);
  EXPECT_EQ(r.status, 1);
  EXPECT_NE(r.stderr_text.find("cannot connect"), std::string::npos)
      << r.stderr_text;
}

// Flag values the thermal DFA or grid cannot run with are rejected while
// parsing: usage text and exit 2, never SIGABRT from a config assert.
void expect_usage_exit(const std::string& args) {
  const RunResult r = run_cli(args);
  ASSERT_TRUE(r.exited) << args << ": CLI died of a signal";
  EXPECT_EQ(r.status, 2) << args;
  EXPECT_NE(r.stderr_text.find("usage:"), std::string::npos)
      << args << ": " << r.stderr_text;
}

// Integer flags whose value parses but does not fit the field it feeds
// (int iterations, unsigned jobs and stage interval). A narrowing cast
// once turned 2^31 into a negative iteration cap (SIGABRT in the DFA)
// and 2^32 into "snapshots off" or "hardware concurrency".
constexpr const char* kNarrowingFlags[] = {
    "--max-iters=2147483648", "--max-iters=4294967296",
    "--max-iters=4294967297", "--stage-every=4294967296",
    "--jobs=4294967296"};

TEST(CliTest, BadThermalFlagsAreUsageErrors) {
  for (const char* flag :
       {"--delta=0", "--delta=-1", "--delta=nan", "--delta=inf",
        "--subdivision=0", "--subdivision=91", "--subdivision=4000",
        "--subdivision=6000"}) {
    expect_usage_exit(std::string(flag) + " crc32");
  }
  for (const char* flag : kNarrowingFlags) {
    expect_usage_exit(std::string(flag) + " crc32");
  }
}

// The measurement path interprets the compiled function, which needs one
// argument per parameter: a missing or wrong-length --args list is a
// diagnostic and exit 1, never SIGABRT from the interpreter's assert.
TEST(CliTest, ArgumentCountMismatchFailsCleanly) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("tadfa-cli-test-" + std::to_string(::getpid()) +
                     ".texpr");
  std::ofstream(path) << "fn h(a, b) { return a + b; }\n";
  for (const char* args : {"", "--args=1 ", "--args=1,2,3 "}) {
    const RunResult r = run_cli(std::string(args) + "--no-map " +
                                path.string());
    ASSERT_TRUE(r.exited) << args << ": CLI died of a signal";
    EXPECT_EQ(r.status, 1) << args;
    EXPECT_NE(r.stderr_text.find("function 'h'"), std::string::npos)
        << args << ": " << r.stderr_text;
    EXPECT_NE(r.stderr_text.find("--args"), std::string::npos)
        << args << ": " << r.stderr_text;
  }
  // The right count measures normally.
  const RunResult ok = run_cli("--args=1,2 --no-map " + path.string());
  ASSERT_TRUE(ok.exited);
  EXPECT_EQ(ok.status, 0) << ok.stderr_text;
  std::filesystem::remove(path);
}

// An integer past int64 once saturated to INT64_MAX: --args ran the
// function on 9223372036854775807, and --seed and --max-queue took it.
TEST(CliTest, IntegersPastInt64AreRejected) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("tadfa-cli-test-int64-" + std::to_string(::getpid()) +
                     ".texpr");
  std::ofstream(path) << "fn h(a, b) { return a + b; }\n";
  const RunResult r =
      run_cli("--args=1,99999999999999999999 --no-map " + path.string());
  ASSERT_TRUE(r.exited) << "CLI died of a signal";
  EXPECT_EQ(r.status, 2);
  EXPECT_NE(r.stderr_text.find("bad --args value '99999999999999999999'"),
            std::string::npos)
      << r.stderr_text;
  std::filesystem::remove(path);

  expect_usage_exit("--seed=99999999999999999999 crc32");
  // The unknown machine name keeps a regression from serving forever.
  expect_usage_exit(
      "serve --socket=/nonexistent/tadfa.sock --machine=no-such-machine "
      "--max-queue=99999999999999999999");
}

TEST(CliTest, KernelsFrontendKeepsKernelArguments) {
  // Naming the kernels frontend explicitly must not lose the kernel's
  // own arguments and memory image.
  const RunResult r = run_cli("--frontend=kernels crc32 --no-map");
  ASSERT_TRUE(r.exited) << "CLI died of a signal";
  EXPECT_EQ(r.status, 0) << r.stderr_text;
}

TEST(CliTest, TwelveDeepNestCompiles) {
  // Frequency scaling makes the innermost window of a 12-deep nest
  // trip_count_guess^12 instruction times long: ~1e10 Euler substeps,
  // more than an int counts. The DFA must still finish and converge; such
  // a window takes the grid's modal path, whose cost does not depend on
  // its length.
  const int depth = 12;
  std::string src = "fn deep(n) {\n  let acc = 0;\n";
  for (int l = 0; l < depth; ++l) {
    src += "  let i" + std::to_string(l) + " = 0;\n";
  }
  std::string indent = "  ";
  for (int l = 0; l < depth; ++l) {
    const std::string i = "i" + std::to_string(l);
    src += indent + i + " = 0;\n" + indent + "while (" + i + " < n) {\n";
    indent += "  ";
  }
  src += indent + "acc = acc + i0 * i11 + 1;\n";
  for (int l = depth - 1; l >= 0; --l) {
    const std::string i = "i" + std::to_string(l);
    src += indent + i + " = " + i + " + 1;\n";
    indent.resize(indent.size() - 2);
    src += indent + "}\n";
  }
  src += "  return acc;\n}\n";
  const auto path = std::filesystem::temp_directory_path() /
                    ("tadfa-cli-test-" + std::to_string(::getpid()) +
                     "-deep.texpr");
  std::ofstream(path) << src;
  const RunResult r = run_cli("--no-map " + path.string() + " --args=3");
  std::filesystem::remove(path);
  ASSERT_TRUE(r.exited) << "CLI died of a signal";
  EXPECT_EQ(r.status, 0) << r.stderr_text;
  std::istringstream lines(r.stdout_text);
  std::string row;
  while (std::getline(lines, row) &&
         row.find("| thermal-dfa ") == std::string::npos) {
  }
  // The summary reads "N iters, converged" or "N iters, NOT converged".
  EXPECT_NE(row.find(" iters, converged"), std::string::npos)
      << r.stdout_text;
}

TEST(CliTest, DeepNestingIsADiagnosticNotACrash) {
  // Nesting past the parser's limit is a diagnostic (exit 1), not a
  // stack overflow.
  const std::string src = "fn g(a) { return " + std::string(5000, '(') + "a" +
                          std::string(5000, ')') + "; }\n";
  const auto path = std::filesystem::temp_directory_path() /
                    ("tadfa-cli-test-" + std::to_string(::getpid()) +
                     "-nested.texpr");
  std::ofstream(path) << src;
  const RunResult r = run_cli("--no-map " + path.string() + " --args=3");
  std::filesystem::remove(path);
  ASSERT_TRUE(r.exited) << "CLI died of a signal";
  EXPECT_EQ(r.status, 1) << r.stderr_text;
  EXPECT_NE(r.stderr_text.find("line 1:273: nesting deeper than 256 levels"),
            std::string::npos)
      << r.stderr_text;
}

TEST(CliTest, ServeRejectsBadThermalFlagsBeforeBinding) {
  const auto socket = std::filesystem::temp_directory_path() /
                      ("tadfa-cli-test-" + std::to_string(::getpid()) +
                       ".sock");
  // serve builds every other machine lazily at the same subdivision, so
  // 91, which fits the default 8x8 file but not the 8x16 'large' one, is
  // refused too. The unknown machine name keeps a regression cheap:
  // without the parse-time bound the command fails on the name (with no
  // usage text) instead of building a grid past the node cap.
  for (const char* flags :
       {"--delta=0", "--delta=-1", "--delta=nan", "--subdivision=6000",
        "--machine=no-such-machine --subdivision=91"}) {
    expect_usage_exit("serve --socket=" + socket.string() + " " + flags);
    EXPECT_FALSE(std::filesystem::exists(socket)) << flags;
  }
  // Narrowing values must fail here, not abort on the first request.
  for (const char* flag : kNarrowingFlags) {
    expect_usage_exit("serve --socket=" + socket.string() + " " + flag);
    EXPECT_FALSE(std::filesystem::exists(socket)) << flag;
  }
  // Non-finite or huge floating-point values: an infinite δ never
  // converges, and an infinite timeout overflows its time conversion.
  // The unknown machine name again keeps a regression from serving
  // forever.
  for (const char* flag :
       {"--delta=inf", "--io-timeout=nan", "--io-timeout=inf",
        "--io-timeout=1e300", "--metrics-every=nan", "--metrics-every=inf"}) {
    expect_usage_exit("serve --socket=" + socket.string() + " " + flag +
                      " --machine=no-such-machine");
    EXPECT_FALSE(std::filesystem::exists(socket)) << flag;
  }
}

// NaN once passed --min-hit-rate, switching the CI warm gate off, and an
// infinite or huge timeout retried a missing socket forever. Each value
// is refused before the client reads its inputs or dials.
TEST(CliTest, ClientRejectsBadNumericFlags) {
  for (const char* flag :
       {"--min-hit-rate=nan", "--busy-timeout=inf", "--busy-timeout=nan",
        "--connect-timeout=inf", "--connect-timeout=nan",
        "--connect-timeout=1e300"}) {
    expect_usage_exit(std::string("client --socket=/nonexistent/tadfa.sock ") +
                      flag + " no-such-input");
  }
}

}  // namespace
