//===- tests/lint_gate_test.cpp - Fixture tests for scripts/lint.sh -------===//
//
// Seeds known violations into synthetic source trees and asserts that
// scripts/lint.sh (pointed at them via MUTK_LINT_ROOT) rejects each one
// with the right layer's message — and that a clean tree passes. This
// keeps the lint gate itself honest: a regression that silently
// disables a layer fails here, not in the next PR that needed it.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <unistd.h>

namespace fs = std::filesystem;

namespace {

/// Runs \p Command, returning its exit status and appending combined
/// stdout+stderr to \p Output.
int runCommand(const std::string &Command, std::string &Output) {
  FILE *Pipe = popen((Command + " 2>&1").c_str(), "r");
  if (!Pipe)
    return -1;
  std::array<char, 4096> Buf{};
  std::size_t N = 0;
  while ((N = fread(Buf.data(), 1, Buf.size(), Pipe)) > 0)
    Output.append(Buf.data(), N);
  return pclose(Pipe);
}

/// A disposable source tree the lint gate can be pointed at.
class FixtureTree {
public:
  FixtureTree() {
    // The pid keeps concurrent ctest processes (which share the gtest
    // random seed and each start the counter at zero) out of each
    // other's trees.
    Root = fs::temp_directory_path() /
           ("mutk_lint_fixture_" + std::to_string(::getpid()) + "_" +
            std::to_string(Counter++));
    fs::create_directories(Root / "src" / "obs");
    fs::create_directories(Root / "docs");
    // Layer 3 requires the metric catalog to exist.
    write("docs/observability.md", "# Metrics\n\n`mutk_documented_total`\n");
  }
  ~FixtureTree() {
    std::error_code Ec;
    fs::remove_all(Root, Ec);
  }

  void write(const std::string &RelPath, const std::string &Content) {
    fs::path P = Root / RelPath;
    fs::create_directories(P.parent_path());
    std::ofstream Out(P);
    Out << Content;
  }

  /// Lints this tree; returns the exit status, filling \p Output.
  int lint(std::string &Output) const {
    std::string Script = std::string(MUTK_REPO_ROOT) + "/scripts/lint.sh";
    std::string Cmd = "MUTK_LINT_SKIP_TIDY=1 MUTK_LINT_ROOT='" +
                      Root.string() + "' bash '" + Script + "'";
    return runCommand(Cmd, Output);
  }

private:
  fs::path Root;
  static int Counter;
};

int FixtureTree::Counter = 0;

} // namespace

TEST(LintGate, CleanTreePasses) {
  FixtureTree Tree;
  Tree.write("src/ok.cpp", "int answer() { return 42; }\n");
  std::string Out;
  EXPECT_EQ(Tree.lint(Out), 0) << Out;
  EXPECT_NE(Out.find("lint: OK"), std::string::npos) << Out;
}

TEST(LintGate, NakedNewIsRejected) {
  FixtureTree Tree;
  Tree.write("src/leaky.cpp", "int *leak() { return new int(7); }\n");
  std::string Out;
  EXPECT_NE(Tree.lint(Out), 0) << Out;
  EXPECT_NE(Out.find("naked 'new' expression"), std::string::npos) << Out;
}

TEST(LintGate, UndocumentedMetricIsRejected) {
  FixtureTree Tree;
  Tree.write("src/obs/Bad.cpp",
             "const char *name() { return \"mutk_bogus_total\"; }\n");
  std::string Out;
  EXPECT_NE(Tree.lint(Out), 0) << Out;
  EXPECT_NE(Out.find("absent from docs/observability.md"), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("mutk_bogus_total"), std::string::npos) << Out;
}

TEST(LintGate, RawMutexMemberIsRejected) {
  FixtureTree Tree;
  Tree.write("src/unannotated.h",
             "#include <mutex>\n"
             "struct S {\n"
             "  std::mutex Mu;\n"
             "  int Guarded = 0;\n"
             "};\n");
  std::string Out;
  EXPECT_NE(Tree.lint(Out), 0) << Out;
  EXPECT_NE(Out.find("raw standard-library locking primitive"),
            std::string::npos)
      << Out;
}

TEST(LintGate, CommentedLockTalkIsNotRejected) {
  FixtureTree Tree;
  Tree.write("src/prose.cpp",
             "// The old design used a std::mutex here; see support/Mutex.h\n"
             "int ok() { return 1; }\n");
  std::string Out;
  EXPECT_EQ(Tree.lint(Out), 0) << Out;
}

TEST(LintGate, SupportWrapperAllowlistHolds) {
  // The wrapper itself is the one place raw primitives are legal.
  FixtureTree Tree;
  Tree.write("src/support/Mutex.h",
             "#include <mutex>\n"
             "struct W { std::mutex M; };\n");
  std::string Out;
  EXPECT_EQ(Tree.lint(Out), 0) << Out;
}

TEST(LintGate, StraySocketCallIsRejected) {
  FixtureTree Tree;
  Tree.write("src/dist/Side.cpp",
             "#include <sys/socket.h>\n"
             "long pull(int Fd, char *B) { return ::recv(Fd, B, 1, 0); }\n");
  std::string Out;
  EXPECT_NE(Tree.lint(Out), 0) << Out;
  EXPECT_NE(Out.find("raw socket call outside the transport module"),
            std::string::npos)
      << Out;
}

TEST(LintGate, TransportModuleAllowlistHolds) {
  // The transport itself, and methods that merely share a socket verb's
  // name, are not stray socket calls.
  FixtureTree Tree;
  Tree.write("src/service/Transport.cpp",
             "#include <sys/socket.h>\n"
             "long pull(int Fd, char *B) { return ::recv(Fd, B, 1, 0); }\n");
  Tree.write("src/dist/Endpoint.cpp",
             "struct E { void send(int); int recv(); };\n"
             "void E::send(int) {}\n"
             "int E::recv() { return 0; }\n");
  std::string Out;
  EXPECT_EQ(Tree.lint(Out), 0) << Out;
}
