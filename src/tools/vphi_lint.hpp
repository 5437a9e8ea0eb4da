// vphi-lint — repo-invariant linter, run as a ctest.
//
// The transport's observability contract is only useful while it is true:
// every metric a component registers must be in the docs/OBSERVABILITY.md
// catalogue (and vice versa — the catalogue must not advertise metrics
// nothing emits), fault-site and span-event names must match what DESIGN
// and the docs promise, the ring's hot paths must stay allocation-free,
// and nothing outside src/tools may write to stdout (library code talks
// through the logger/recorder, never the terminal). Config knobs get the
// same bidirectional treatment as metrics: every `VPHI_*` env knob the
// code reads must be documented, and every documented knob must still
// exist. Simulated outcomes and correctness tests never read or wait on
// the host clock, outside an allow-list of timing shims. Every member
// function a src/ header declares has a caller somewhere in the tree. Each
// rule is a pure function over file contents so tests can feed synthetic
// corpora and prove the linter actually fails on violations.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vphi::tools::lint {

/// One rule violation: which rule, where, and what is wrong.
struct Finding {
  std::string rule;
  std::string where;  ///< "path" or "path:line"
  std::string message;
};

/// A set of source files: (repo-relative path, contents).
using Corpus = std::vector<std::pair<std::string, std::string>>;

/// Comment- and string-stripping lexer output for one file.
struct LexedFile {
  /// Contents with comments and string/char literal bodies blanked (same
  /// length and line structure as the input, so offsets map to lines).
  std::string code;
  /// Every string literal body, in order of appearance.
  std::vector<std::string> strings;
};

/// Strip // and /* */ comments and extract "..." literal bodies
/// (adjacent-literal concatenation is not folded; escapes are kept raw).
LexedFile lex(std::string_view source);

/// Rule 1: every `vphi.*` metric name literal in src appears in the
/// OBSERVABILITY.md catalogue and every catalogued name traces back to a
/// source literal. Prefix literals ("vphi.fe.op.") pair with
/// parameterized catalogue entries ("vphi.fe.op.<op>.errors").
std::vector<Finding> check_metric_catalogue(const Corpus& src,
                                            std::string_view observability_md);

/// Rule 2: fault-site names (live from sim::fault_site_name) are unique
/// and each is documented in OBSERVABILITY.md.
std::vector<Finding> check_fault_sites(std::string_view observability_md);

/// Rule 3: span-event names (live from sim::span_event_name) are unique
/// and each appears in DESIGN.md's section-10 hop list.
std::vector<Finding> check_span_events(std::string_view design_md);

/// Rule 4: no `new`/`malloc`/`calloc`/`realloc` in ring hot paths
/// (src/virtio/ring.*) — steady-state descriptor traffic must not touch
/// the allocator.
std::vector<Finding> check_ring_allocations(const Corpus& src);

/// Rule 5: no direct `std::cout` / `printf(` outside src/tools — library
/// code reports through the logger, metrics and recorder.
std::vector<Finding> check_stray_output(const Corpus& src);

/// Rule 6: config-knob catalogue stays bidirectional. Every `VPHI_*` env
/// knob the code reads (a VPHI_ token inside a src string literal — the
/// getenv name) and every `option(VPHI_*)` a CMake file declares must be
/// backtick-documented somewhere in the docs corpus (README.md, DESIGN.md,
/// EXPERIMENTS.md, docs/*.md); and every backticked `VPHI_*` token in the
/// docs must still exist somewhere in src or CMake (identifiers count, so
/// documented thread-safety macros don't false-positive). Tokens ending in
/// '_' are family mentions ("VPHI_TENANT_*"), not knobs.
std::vector<Finding> check_config_knobs(const Corpus& src,
                                        const Corpus& cmake,
                                        const Corpus& docs);

/// Rule 7: no host clock in src/ or tests/. `sleep_for`, `sleep_until`,
/// `steady_clock`, `system_clock`, `high_resolution_clock` and `wait_until`
/// are rejected outside comments and string literals: a simulated outcome
/// (a loss, a timeout) or a correctness test that depends on wall time
/// varies with host load. Allowed by file: src/sim/engine.cpp (engine
/// profiling measures the host on purpose) and src/scif/fabric.cpp
/// (PollHub::wait_change bounds scif_poll's finite timeout in real time
/// until the transport has a simulated-time scheduler).
/// `std::this_thread::yield` stays allowed: tests use it as a rendezvous
/// spin, and it reads no clock.
std::vector<Finding> check_real_time(const Corpus& code);

/// Rule 8: every member function declared in a class body in
/// src/**/*.hpp has a caller. `code` is every source file of src/, tests/,
/// bench/ and examples/; a name is flagged when its identifier tokens in
/// them (outside comments and strings) number no more than its
/// declarations and their definitions: one for a declaration with its
/// body or an `= ...` tail, two for one defined out of line. Overloads and
/// overrides pool their counts, so the rule errs towards passing.
/// Constructors, destructors, operators, friends and all-caps macro names
/// are not checked. An allow-list in the rule keeps a name with a reason.
std::vector<Finding> check_uncalled_members(const Corpus& code);

/// Load src/, tests/, bench/ and examples/ sources, docs/OBSERVABILITY.md
/// and DESIGN.md from `repo_root` and run every rule. Returns all findings
/// (empty = clean).
std::vector<Finding> run_all(const std::string& repo_root);

}  // namespace vphi::tools::lint
