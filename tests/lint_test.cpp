// vphi-lint self-tests: the repo passes every rule, and — the half a
// linter is usually missing — each rule demonstrably FAILS on a synthetic
// violation, so a silently-degraded lint cannot pass ctest.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>

#include "tools/vphi_lint.hpp"

namespace vphi::tools::lint {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// The real repo root: tests run from build/tests, sources configured in.
#ifndef VPHI_REPO_ROOT
#define VPHI_REPO_ROOT "."
#endif

bool has_rule(const std::vector<Finding>& findings, const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

TEST(Lint, RepoIsClean) {
  const auto findings = run_all(VPHI_REPO_ROOT);
  for (const auto& f : findings) {
    ADD_FAILURE() << "[" << f.rule << "] " << f.where << ": " << f.message;
  }
}

TEST(Lint, LexStripsCommentsAndExtractsStrings) {
  const LexedFile lexed = lex(
      "int x; // new in a comment\n"
      "/* malloc here */ const char* s = \"vphi.fake.metric\";\n"
      "char c = '\"'; std::string t = \"esc \\\" quote\";\n"
      "int n = 2'500; auto m = 0xFF'FF; char d = u8'x'; // after\n");
  EXPECT_EQ(lexed.code.find("comment"), std::string::npos);
  EXPECT_EQ(lexed.code.find("malloc"), std::string::npos);
  ASSERT_EQ(lexed.strings.size(), 2u);
  EXPECT_EQ(lexed.strings[0], "vphi.fake.metric");
  EXPECT_EQ(lexed.strings[1], "esc \\\" quote");
  // Digit separators are code, not character literals: what follows them
  // is still lexed (the comment is stripped, `auto m` survives).
  EXPECT_NE(lexed.code.find("auto m"), std::string::npos);
  EXPECT_EQ(lexed.code.find("after"), std::string::npos);
  // Line structure is preserved for offset->line mapping.
  EXPECT_EQ(std::count(lexed.code.begin(), lexed.code.end(), '\n'), 4);
}

TEST(Lint, LexBlanksRawStrings) {
  // A raw string's quotes and backslashes do not end it; only )d" does.
  const LexedFile lexed = lex(
      "auto j = R\"({\"name\": \"x\\\"})\";\n"
      "auto k = R\"d(a)\" b)d\"; int after;\n");
  ASSERT_EQ(lexed.strings.size(), 2u);
  EXPECT_EQ(lexed.strings[0], "{\"name\": \"x\\\"}");
  EXPECT_EQ(lexed.strings[1], "a)\" b");
  EXPECT_EQ(lexed.code.find("name"), std::string::npos);
  EXPECT_NE(lexed.code.find("int after;"), std::string::npos);
  EXPECT_EQ(lexed.code.size(),
            std::string_view("auto j = R\"({\"name\": \"x\\\"})\";\n"
                             "auto k = R\"d(a)\" b)d\"; int after;\n")
                .size());
}

TEST(Lint, UncataloguedMetricFails) {
  // The acceptance demo: a metric registered in src but absent from the
  // catalogue must produce a metric-catalogue finding.
  Corpus src = {{"src/fake/thing.cpp",
                 "metrics::Counter c{\"vphi.fake.uncatalogued\"};"}};
  const std::string docs = "| `vphi.other.metric` | counter | x | y |\n";
  const auto findings = check_metric_catalogue(src, docs);
  ASSERT_TRUE(has_rule(findings, "metric-catalogue"));
  // Both directions fire: the src name is undocumented AND the catalogued
  // name is unregistered.
  EXPECT_EQ(findings.size(), 2u);
}

TEST(Lint, CataloguedFamilyPrefixMatches) {
  Corpus src = {{"src/fake/thing.cpp",
                 "Counter c{std::string(\"vphi.fake.op.\") + op + "
                 "\".errors\"};"}};
  const std::string docs =
      "| `vphi.fake.op.<op>.errors` | counter | requests | per-op |\n";
  EXPECT_TRUE(check_metric_catalogue(src, docs).empty());
}

TEST(Lint, RealCatalogueRoundTrips) {
  // Run rule 1 against the actual tree + docs, independent of run_all, so
  // a failure pinpoints the catalogue rather than "some rule".
  const std::string root{VPHI_REPO_ROOT};
  const auto findings = check_metric_catalogue(
      Corpus{{"src/all.cpp", ""}}, slurp(root + "/docs/OBSERVABILITY.md"));
  // An empty source corpus must flag every catalogued metric as stale —
  // proving the docs->src direction actually reads the docs.
  EXPECT_FALSE(findings.empty());
}

TEST(Lint, FaultSitesDocumented) {
  EXPECT_TRUE(check_fault_sites(
                  slurp(std::string{VPHI_REPO_ROOT} + "/docs/OBSERVABILITY.md"))
                  .empty());
  // Empty docs: every one of the thirteen sites is a finding.
  EXPECT_EQ(check_fault_sites("").size(), 13u);
}

TEST(Lint, SpanEventsMatchDesignHopList) {
  EXPECT_TRUE(
      check_span_events(slurp(std::string{VPHI_REPO_ROOT} + "/DESIGN.md"))
          .empty());
  EXPECT_EQ(check_span_events("").size(), 9u);
}

TEST(Lint, RingAllocationFails) {
  Corpus src = {{"src/virtio/ring.cpp",
                 "void f() {\n  auto* p = new Desc[4];\n  (void)p;\n}\n"}};
  const auto findings = check_ring_allocations(src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "ring-allocations");
  EXPECT_EQ(findings[0].where, "src/virtio/ring.cpp:2");
  // The per-queue Virtqueue front is hot path too (multi-queue).
  EXPECT_EQ(check_ring_allocations(
                {{"src/virtio/device.hpp", "void g() { auto* q = new Q; }"}})
                .size(),
            1u);
  // The fleet engine's traffic generator is hot path too: every arrival
  // draws from it.
  EXPECT_EQ(check_ring_allocations(
                {{"src/sim/traffic.hpp", "void h() { auto* s = new Slot; }"},
                 {"src/sim/traffic.cpp", "char* b = (char*)malloc(64);"}})
                .size(),
            2u);
  // Commented allocations and other files do not fire.
  EXPECT_TRUE(check_ring_allocations(
                  {{"src/virtio/ring.hpp", "// never calls new\n"},
                   {"src/vphi/backend.cpp", "auto* p = new int;"}})
                  .empty());
}

TEST(Lint, ConfigKnobDriftFails) {
  // An env knob read via getenv but absent from the docs corpus fires the
  // src->docs direction; a documented knob that vanished from the code
  // fires docs->src.
  Corpus src = {{"src/fake/thing.cpp",
                 "const char* v = std::getenv(\"VPHI_FAKE_KNOB\");"}};
  Corpus cmake = {{"CMakeLists.txt", "option(VPHI_FAKE_OPT \"x\" OFF)\n"}};
  Corpus docs = {{"README.md", "Set `VPHI_GONE_KNOB=1` to enable it.\n"}};
  const auto findings = check_config_knobs(src, cmake, docs);
  ASSERT_EQ(findings.size(), 3u);
  for (const auto& f : findings) EXPECT_EQ(f.rule, "config-knobs");
}

TEST(Lint, ConfigKnobCleanCorpusPasses) {
  Corpus src = {{"src/fake/thing.cpp",
                 "const char* v = std::getenv(\"VPHI_FAKE_KNOB\");\n"
                 "int x VPHI_GUARDED_BY(mu_);  // macro, not a knob\n"}};
  Corpus cmake = {{"CMakeLists.txt",
                   "option(VPHI_FAKE_OPT \"x\" OFF)\n"
                   "set(VPHI_INTERNAL_VAR 1)\n"}};  // set() is not a knob
  Corpus docs = {{"README.md",
                  "Set `VPHI_FAKE_KNOB=1`; build with `VPHI_FAKE_OPT=ON`.\n"
                  "Annotate with `VPHI_GUARDED_BY(mu_)`.\n"
                  "The `VPHI_TENANT_*` family is prose, not a knob.\n"}};
  EXPECT_TRUE(check_config_knobs(src, cmake, docs).empty());
}

TEST(Lint, StrayOutputFails) {
  Corpus src = {{"src/scif/endpoint.cpp", "std::cout << \"dbg\";"},
                {"src/hv/vm.cpp", "printf(\"x\\n\");"},
                {"src/tools/vphi_top.cpp", "std::printf(\"ok\\n\");"},
                {"src/sim/recorder.cpp", "fprintf(stderr, \"dump\\n\");"}};
  const auto findings = check_stray_output(src);
  ASSERT_EQ(findings.size(), 2u);  // tools/ and fprintf(stderr) exempt
  EXPECT_EQ(findings[0].rule, "stray-output");
}

TEST(Lint, RealTimeFails) {
  Corpus code = {
      {"src/vphi/frontend.cpp",
       "auto t = std::chrono::steady_clock::now();\n"
       "cv.wait_until(mu, t);\n"},
      {"src/hv/vm.cpp", "auto w = std::chrono::system_clock::now();"},
      {"src/sim/actor.cpp",
       "auto h = std::chrono::high_resolution_clock::now();"},
      // The sleep token is split across two literals so that a plain grep
      // for it over tests/ finds no real sleep.
      {"tests/fake_test.cpp",
       "for (int i = 0; i < 2'500; ++i) std::this_thread::sleep"
       "_for(ms);\n"
       "std::this_thread::sleep_until(deadline);\n"}};
  const auto findings = check_real_time(code);
  ASSERT_EQ(findings.size(), 6u);
  for (const auto& f : findings) EXPECT_EQ(f.rule, "real-time");
  EXPECT_EQ(findings[0].where, "src/vphi/frontend.cpp:1");
  EXPECT_EQ(findings[1].where, "src/vphi/frontend.cpp:2");
  EXPECT_EQ(findings[5].where, "tests/fake_test.cpp:2");
}

TEST(Lint, RealTimeAllowListCommentsAndYieldPass) {
  Corpus code = {
      // The timing shims, allowed by file.
      {"src/sim/engine.cpp", "auto t = std::chrono::steady_clock::now();"},
      {"src/scif/fabric.cpp", "cv_.wait_until(mu_, deadline);"},
      // Comments, string literals and longer identifiers do not fire.
      {"src/vphi/frontend.cpp",
       "// never sleep_until here\n"
       "const char* s = \"steady_clock\";\n"
       "int wait_until_idle = 0;\n"},
      // A rendezvous spin reads no clock.
      {"tests/fake_test.cpp", "while (!go) std::this_thread::yield();"}};
  EXPECT_TRUE(check_real_time(code).empty());
}

TEST(Lint, UncalledMemberFails) {
  Corpus code = {
      {"src/a/foo.hpp",
       "class VPHI_CAPABILITY(\"x\") Foo {\n"
       " public:\n"
       "  explicit Foo(int n) : n_(n) {}\n"
       "  ~Foo();\n"
       "  void used() VPHI_EXCLUDES(mu_);\n"
       "  void unused();\n"                              // line 6
       "  int inline_unused() const { return n_; }\n"    // line 7
       "  int inline_used() const { return n_; }\n"
       "  virtual void pure() = 0;\n"                    // line 9
       "  bool operator==(const Foo&) const;\n"
       "  friend void swap(Foo&, Foo&);\n"
       "  struct Inner {\n"
       "    void inner_unused();\n"                      // line 13
       "  };\n"
       " private:\n"
       "  int n_ VPHI_GUARDED_BY(mu_);\n"
       "  void (*cb_)(int);\n"
       "  std::function<void(int)> fn_ = [](int) { return; };\n"
       "};\n"},
      {"src/a/foo.cpp",
       "void Foo::used() {}\n"
       "void Foo::unused() {}  // unused() is named in a comment\n"
       "void Foo::Inner::inner_unused() { const char* s = \"unused\"; }\n"},
      {"src/a/main.cpp", "Foo f{1}; f.used(); f.inline_used();\n"},
      // A test is not a caller: a member only tests call is flagged.
      {"tests/foo_test.cpp", "f.unused(); f.inline_unused();\n"}};
  const auto findings = check_uncalled_members(code);
  ASSERT_EQ(findings.size(), 4u);
  for (const auto& f : findings) EXPECT_EQ(f.rule, "uncalled-members");
  EXPECT_EQ(findings[0].where, "src/a/foo.hpp:6");
  EXPECT_NE(findings[0].message.find("'Foo::unused'"), std::string::npos);
  EXPECT_EQ(findings[1].where, "src/a/foo.hpp:7");
  EXPECT_EQ(findings[2].where, "src/a/foo.hpp:9");
  EXPECT_EQ(findings[3].where, "src/a/foo.hpp:13");
  EXPECT_NE(findings[3].message.find("'Inner::inner_unused'"),
            std::string::npos);
}

TEST(Lint, UncalledMemberIgnoresSameNamedFieldsLocalsAndLabels) {
  // Only a call (`name(`) or a pointer to member (`&Class::name`) reaches
  // a member function; a field, a local or a label spelled the same does
  // not keep an uncalled getter alive.
  Corpus code = {
      {"src/v/ring.hpp",
       "class Ring {\n"
       " public:\n"
       "  int kicks() const { return kicks_; }\n"  // line 3
       "  void pop();\n"
       "  void drain();\n"
       " private:\n"
       "  int kicks_ = 0;\n"
       "};\n"},
      {"src/v/ring.cpp", "void Ring::pop() {}\nvoid Ring::drain() {}\n"},
      {"src/v/stats.cpp",
       "struct Row { int kicks = 0; };\n"
       "void fill(Row& row, int kicks) {\n"
       "  row.kicks = kicks;\n"
       "  emit(\"kicks\", row.kicks);\n"
       "}\n"
       "auto pop_fn = &Ring::pop;\n"
       "void go(Ring& r) { r.drain(); }\n"}};
  const auto findings = check_uncalled_members(code);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].where, "src/v/ring.hpp:3");
  EXPECT_NE(findings[0].message.find("'Ring::kicks'"), std::string::npos);
}

TEST(Lint, UncalledMemberCountsEveryTreeAndPoolsOverloads) {
  Corpus code = {
      {"src/a/bar.hpp",
       "template <class T> struct Bar {\n"
       "  void from_bench();\n"
       "  void from_example() {}\n"
       "  void put(int);\n"
       "  void put(double);\n"
       "  template <typename F> void each(F f) { f(); }\n"
       "};\n"
       "struct Base { virtual void run() = 0; };\n"
       "struct Impl : Base { void run() override {} };\n"},
      {"src/a/bar.cpp",
       "void Bar::from_bench() {}\n"
       "void Bar::put(int) {}\n"
       "void Bar::put(double) {}\n"},
      {"bench/b.cpp", "bar.from_bench(); bar.each([] {});\n"},
      {"examples/e.cpp", "bar.from_example(); bar.put(1); impl.run();\n"}};
  EXPECT_TRUE(check_uncalled_members(code).empty());
}

}  // namespace
}  // namespace vphi::tools::lint
