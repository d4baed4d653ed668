// rck::chk::lint — the tokenizer-based invariant linter behind tools/rck_lint.
#include "rck/chk/lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace rck::chk::lint {
namespace {

bool has_rule(const std::vector<Finding>& fs, std::string_view rule) {
  return std::any_of(fs.begin(), fs.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

bool rules_contain(std::string_view path, std::string_view rule) {
  const std::vector<std::string> rs = rules_for(path);
  return std::find(rs.begin(), rs.end(), rule) != rs.end();
}

TEST(LintStrip, BlanksCommentsAndLiteralsKeepingLines) {
  const std::string in =
      "int a; // rand() here\n"
      "const char* s = \"mt19937\";\n"
      "/* system_clock\n   spans lines */ int b;\n";
  const std::string out = strip(in);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'),
            std::count(in.begin(), in.end(), '\n'));
  EXPECT_EQ(out.find("rand"), std::string::npos);
  EXPECT_EQ(out.find("mt19937"), std::string::npos);
  EXPECT_EQ(out.find("system_clock"), std::string::npos);
  EXPECT_NE(out.find("int a;"), std::string::npos);
  EXPECT_NE(out.find("int b;"), std::string::npos);
}

TEST(LintStrip, RawStringsAndDigitSeparators) {
  const std::string in =
      "auto r = R\"(rand inside raw)\";\n"
      "int big = 1'000'000; int after = rand;\n";
  const std::string out = strip(in);
  EXPECT_EQ(out.find("rand inside raw"), std::string::npos);
  EXPECT_NE(out.find("1'000'000"), std::string::npos);
  EXPECT_NE(out.find("rand;"), std::string::npos);  // real code survives
}

TEST(LintRules, ScopingFollowsTheTree) {
  EXPECT_TRUE(rules_contain("src/scc/runtime.cpp", "determinism"));
  EXPECT_TRUE(rules_contain("src/chk/checker.cpp", "determinism"));
  EXPECT_FALSE(rules_contain("src/bio/protein.cpp", "determinism"));
  EXPECT_TRUE(rules_contain("src/bio/protein.cpp", "throw-taxonomy"));
  EXPECT_TRUE(rules_contain("src/core/kabsch.cpp", "hot-path-alloc"));
  EXPECT_FALSE(rules_contain("src/core/tmalign.cpp", "hot-path-alloc"));
  // The round-2 batch kernel inherits the allocation-freedom contract.
  EXPECT_TRUE(rules_contain("src/core/batch.cpp", "hot-path-alloc"));
  EXPECT_TRUE(rules_for("tests/chk/test_lint.cpp").empty());   // not covered
  EXPECT_TRUE(rules_for("src/scc/CMakeLists.txt").empty());    // not source
}

TEST(LintDeterminism, BansFireOnIdentifiersNotComments) {
  const auto dirty = lint_file("src/scc/x.cpp", "auto g = std::mt19937{7};\n");
  ASSERT_TRUE(has_rule(dirty, "determinism"));
  EXPECT_EQ(dirty.front().line, 1);

  const auto comment_only =
      lint_file("src/scc/x.cpp", "// seeded like mt19937 but deterministic\n");
  EXPECT_FALSE(has_rule(comment_only, "determinism"));
}

TEST(LintDeterminism, WallClockCallsButNotTimeMembers) {
  EXPECT_TRUE(has_rule(lint_file("src/noc/x.cpp", "auto t = std::time(nullptr);\n"),
                       "determinism"));
  EXPECT_TRUE(has_rule(lint_file("src/noc/x.cpp", "long t = time(NULL);\n"),
                       "determinism"));
  // A member/method merely named time() is the simulator's own clock.
  EXPECT_FALSE(has_rule(
      lint_file("src/noc/x.cpp", "const SimTime t = model.time(cycles);\n"),
      "determinism"));
  EXPECT_FALSE(has_rule(
      lint_file("src/noc/x.cpp", "noc::SimTime time(std::uint64_t c);\n"),
      "determinism"));
}

TEST(LintDeterminism, WaiverSuppressesSameAndNextLine) {
  const std::string waived =
      "// rck-lint: allow(determinism)\n"
      "auto g = std::mt19937{7};\n";
  EXPECT_TRUE(lint_file("src/scc/x.cpp", waived).empty());

  const std::string inline_waiver =
      "auto g = std::mt19937{7};  // rck-lint: allow(determinism)\n";
  EXPECT_TRUE(lint_file("src/scc/x.cpp", inline_waiver).empty());
}

TEST(LintThrowTaxonomy, RequiresErrorSuffixedClasses) {
  EXPECT_TRUE(has_rule(
      lint_file("src/bio/x.cpp", "throw std::runtime_error(\"x\");\n"),
      "throw-taxonomy"));
  EXPECT_FALSE(has_rule(
      lint_file("src/bio/x.cpp", "throw ParseError(\"bad pdb\");\n"),
      "throw-taxonomy"));
  EXPECT_FALSE(has_rule(
      lint_file("src/bio/x.cpp", "throw rck::chk::ChkIoError(msg);\n"),
      "throw-taxonomy"));
  EXPECT_FALSE(has_rule(lint_file("src/bio/x.cpp", "catch (...) { throw; }\n"),
                        "throw-taxonomy"));
}

TEST(LintErrorCodes, RegisteredCodesPassTyposFire) {
  EXPECT_TRUE(rules_contain("src/rckskel/skeletons.cpp", "error-codes"));
  // The PR 6 checkpoint-codec family is a minted code.
  EXPECT_FALSE(has_rule(
      lint_file("src/rckskel/x.hpp",
                ": Error(\"rck.skel.checkpoint\", message) {}\n"),
      "error-codes"));
  // So is the batched-grant protocol family.
  EXPECT_FALSE(has_rule(
      lint_file("src/rckskel/x.hpp",
                ": Error(\"rck.skel.batch\", message) {}\n"),
      "error-codes"));
  const auto typo = lint_file(
      "src/rckskel/x.hpp", ": Error(\"rck.skel.chekpoint\", message) {}\n");
  ASSERT_TRUE(has_rule(typo, "error-codes"));
  EXPECT_EQ(typo.front().line, 1);
}

TEST(LintErrorCodes, EmbeddedCodesCommentsAndWaivers) {
  // Codes embedded mid-literal (the chk JSON emitter) are still validated.
  EXPECT_FALSE(has_rule(
      lint_file("src/chk/x.cpp",
                "out += \"{\\\"code\\\": \\\"rck.chk.race\\\", \\\"kind\\\": \";\n"),
      "error-codes"));
  EXPECT_TRUE(has_rule(
      lint_file("src/chk/x.cpp",
                "out += \"{\\\"code\\\": \\\"rck.chk.racy\\\"}\";\n"),
      "error-codes"));
  // Prose mentions in comments never fire; a family prefix alone is not a
  // code; waivers opt a line out for deliberately unregistered strings.
  EXPECT_FALSE(has_rule(
      lint_file("src/bio/x.cpp", "// the \"rck.bogus.family\" strawman\n"),
      "error-codes"));
  EXPECT_FALSE(has_rule(
      lint_file("src/bio/x.cpp", "log(\"rck.skel master failover\");\n"),
      "error-codes"));
  EXPECT_TRUE(
      lint_file("src/bio/x.cpp",
                "auto c = \"rck.new.family\";  // rck-lint: allow(error-codes)\n")
          .empty());
}

TEST(LintHotPath, AllocationBansOnlyInKernelFiles) {
  const std::string growing = "void f(std::vector<int>& v) { v.push_back(1); }\n";
  EXPECT_TRUE(has_rule(lint_file("src/core/kabsch.cpp", growing),
                       "hot-path-alloc"));
  EXPECT_FALSE(has_rule(lint_file("src/core/tmalign.cpp", growing),
                        "hot-path-alloc"));
  EXPECT_TRUE(has_rule(lint_file("src/core/simd_kernels.cpp",
                                 "auto* p = new double[9];\n"),
                       "hot-path-alloc"));
}

TEST(LintIncludes, LayoutObligations) {
  EXPECT_TRUE(has_rule(
      lint_file("src/scc/x.cpp", "#include \"../noc/network.hpp\"\n"),
      "include-hygiene"));
  EXPECT_TRUE(has_rule(lint_file("src/scc/x.cpp", "#include \"rck/rck.hpp\"\n"),
                       "include-hygiene"));
  // The umbrella's own implementation, the service layer above it, and
  // tools may include it.
  EXPECT_FALSE(has_rule(lint_file("src/rck/run.cpp", "#include \"rck/rck.hpp\"\n"),
                        "include-hygiene"));
  EXPECT_FALSE(has_rule(
      lint_file("src/service/service.cpp", "#include \"rck/rck.hpp\"\n"),
      "include-hygiene"));
  EXPECT_FALSE(has_rule(lint_file("tools/rck_lint.cpp", "#include \"rck/rck.hpp\"\n"),
                        "include-hygiene"));
  // Public rck/... paths and same-directory private headers are fine; angle
  // brackets carry no obligation.
  EXPECT_TRUE(lint_file("src/scc/x.cpp",
                        "#include \"rck/noc/network.hpp\"\n"
                        "#include \"pair_exec.hpp\"\n"
                        "#include <vector>\n")
                  .empty());
}

TEST(LintWaivers, MultiRuleAllowCoversEveryNamedRule) {
  // One marker may waive several rules: the include-hygiene hit on its own
  // line and the determinism hit on the next are both named, so the file is
  // clean.
  const std::string multi =
      "#include \"../rng.hpp\"  // rck-lint: allow(include-hygiene, "
      "determinism, layering)\n"
      "auto g = std::mt19937{7};\n";
  EXPECT_TRUE(lint_file("src/scc/x.cpp", multi).empty());

  // Spaces around the rule names are insignificant.
  const std::string spaced =
      "auto g = std::mt19937{7};  // rck-lint: allow( determinism , "
      "error-codes )\n";
  EXPECT_TRUE(lint_file("src/scc/x.cpp", spaced).empty());
}

TEST(LintWaivers, AllowWaivesOnlyTheNamedRules) {
  // allow(determinism) does not silence the include-hygiene finding that
  // shares the line.
  const std::string partial =
      "#include \"../rng.hpp\"  // rck-lint: allow(determinism)\n";
  const auto fs = lint_file("src/scc/x.cpp", partial);
  EXPECT_TRUE(has_rule(fs, "include-hygiene"));
  EXPECT_FALSE(has_rule(fs, "determinism"));
}

TEST(LintWaivers, ScopeIsSameAndNextLineOnly) {
  const std::string distant =
      "// rck-lint: allow(determinism)\n"
      "\n"
      "auto g = std::mt19937{7};\n";
  EXPECT_TRUE(has_rule(lint_file("src/scc/x.cpp", distant), "determinism"));
}

TEST(LintWaivers, AllowAllIsTheBlanketEscape) {
  const std::string blanket =
      "// rck-lint: allow(all)\n"
      "#include \"../rng.hpp\"\n";
  EXPECT_TRUE(lint_file("src/scc/x.cpp", blanket).empty());
}

TEST(LintLayering, EnforcesTheIncludeDag) {
  // bio/core are pure compute: the simulator and the skeletons are
  // invisible to them.
  EXPECT_TRUE(has_rule(
      lint_file("src/core/x.cpp", "#include \"rck/scc/runtime.hpp\"\n"),
      "layering"));
  EXPECT_TRUE(has_rule(
      lint_file("src/bio/x.cpp", "#include \"rck/rckskel/skeletons.hpp\"\n"),
      "layering"));
  EXPECT_TRUE(has_rule(
      lint_file("src/bio/x.cpp", "#include \"rck/noc/network.hpp\"\n"),
      "layering"));
  // Sim layers never reach up into the umbrella or the service layer.
  EXPECT_TRUE(has_rule(
      lint_file("src/scc/x.cpp", "#include \"rck/service/service.hpp\"\n"),
      "layering"));
  EXPECT_TRUE(has_rule(
      lint_file("src/rckskel/x.cpp", "#include \"rck/query.hpp\"\n"),
      "layering"));
  // Listed edges pass; so does the shared error taxonomy from everywhere.
  EXPECT_FALSE(has_rule(
      lint_file("src/scc/x.cpp", "#include \"rck/mc/mc.hpp\"\n"), "layering"));
  EXPECT_FALSE(has_rule(
      lint_file("src/core/x.cpp", "#include \"rck/bio/protein.hpp\"\n"),
      "layering"));
  EXPECT_FALSE(has_rule(
      lint_file("src/bio/x.cpp", "#include \"rck/error.hpp\"\n"), "layering"));
  // Own headers and same-directory private headers carry no edge at all.
  EXPECT_FALSE(has_rule(
      lint_file("src/scc/x.cpp", "#include \"rck/scc/timing.hpp\"\n"),
      "layering"));
  EXPECT_FALSE(has_rule(lint_file("src/scc/x.cpp", "#include \"detail.hpp\"\n"),
                        "layering"));
}

TEST(LintLayering, RegisteredExceptionIsFileScoped) {
  // scc::timing's stats reuse is registered for exactly that header...
  EXPECT_FALSE(has_rule(lint_file("src/scc/include/rck/scc/timing.hpp",
                                  "#include \"rck/core/stats.hpp\"\n"),
                        "layering"));
  // ...and nowhere else in scc.
  EXPECT_TRUE(has_rule(
      lint_file("src/scc/runtime.cpp", "#include \"rck/core/stats.hpp\"\n"),
      "layering"));
}

TEST(LintLayering, WaiversAndScopingApply) {
  EXPECT_FALSE(has_rule(
      lint_file("src/core/x.cpp",
                "#include \"rck/scc/runtime.hpp\"  // rck-lint: allow(layering)\n"),
      "layering"));
  // tools/ sit above the whole stack: no layering obligations.
  EXPECT_FALSE(rules_contain("tools/rck_mc.cpp", "layering"));
  EXPECT_TRUE(rules_contain("src/mc/mc.cpp", "layering"));
}

TEST(LintJson, StableShapeAndEscaping) {
  EXPECT_EQ(to_json({}), "[]\n");
  const std::vector<Finding> fs{
      {"src/scc/x.cpp", 3, "determinism", "banned \"clock\"\tuse"},
      {"src/bio/y.cpp", 7, "error-codes", "unregistered"},
  };
  const std::string j = to_json(fs);
  EXPECT_NE(j.find("\"rule\": \"determinism\""), std::string::npos);
  EXPECT_NE(j.find("\"path\": \"src/scc/x.cpp\""), std::string::npos);
  EXPECT_NE(j.find("\"line\": 3"), std::string::npos);
  EXPECT_NE(j.find("\\\"clock\\\""), std::string::npos);  // quotes escaped
  EXPECT_NE(j.find("\\t"), std::string::npos);            // control escaped
  EXPECT_NE(j.find("\"line\": 7"), std::string::npos);
  // Two objects, one array.
  EXPECT_EQ(std::count(j.begin(), j.end(), '{'), 2);
  EXPECT_EQ(j.front(), '[');
}

TEST(LintFindings, AreSortedByLineThenRule) {
  const std::string two =
      "#include \"../bad.hpp\"\n"
      "auto g = std::mt19937{7};\n";
  const auto fs = lint_file("src/scc/x.cpp", two);
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_EQ(fs[0].line, 1);
  EXPECT_EQ(fs[0].rule, "include-hygiene");
  EXPECT_EQ(fs[1].line, 2);
  EXPECT_EQ(fs[1].rule, "determinism");
}

}  // namespace
}  // namespace rck::chk::lint
