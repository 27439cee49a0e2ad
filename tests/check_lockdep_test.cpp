// Lockdep validator correctness: a planted lock-order inversion is
// reported as a named cycle, blocking on a condition variable while
// holding another tracked mutex is flagged, the serving-stack drill
// produces a deterministic, cycle-free graph across multi-threaded runs
// (edges are a function of code paths, not schedules), and the DOT/JSON
// exports are well-formed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "check/lock_drill.hpp"
#include "check/lockdep.hpp"
#include "common/sync.hpp"

namespace aks::check::lockdep {
namespace {

// ---------------------------------------------------------------------------
// Minimal validating JSON reader — enough to prove write_json() emits
// strict JSON (object/array/string/number/bool/null, no trailing commas).
class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  bool parse() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::string w(word);
    if (text_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

std::vector<std::string> edge_names(const Report& report) {
  std::vector<std::string> names;
  names.reserve(report.edges.size());
  for (const auto& edge : report.edges) {
    names.push_back(edge.from_name + " -> " + edge.to_name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

TEST(Lockdep, PlantedInversionReportsNamedCycle) {
  reset();
  // The inversion is planted through the instrumentation hooks — exactly
  // what the aks::Mutex wrappers call — rather than by nesting real
  // mutexes, so TSan's own lock-order detector doesn't (correctly) abort
  // the deliberate inversion when this suite runs under the tsan job.
  const std::uint32_t alpha = register_class("test.lockdep.alpha");
  const std::uint32_t beta = register_class("test.lockdep.beta");
  on_acquire(alpha);
  on_acquire(beta);  // alpha -> beta
  on_release(beta);
  on_release(alpha);
  on_acquire(beta);
  on_acquire(alpha);  // beta -> alpha: inversion
  on_release(alpha);
  on_release(beta);
  const Report report = capture();
  ASSERT_EQ(report.cycles.size(), 1u);
  const auto& names = report.cycles[0].names;
  EXPECT_NE(std::find(names.begin(), names.end(), "test.lockdep.alpha"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "test.lockdep.beta"),
            names.end());
  EXPECT_FALSE(report.clean());
  reset();
}

TEST(Lockdep, SingleOrderStaysClean) {
  reset();
  aks::Mutex alpha{"test.lockdep.alpha"};
  aks::Mutex beta{"test.lockdep.beta"};
  for (int i = 0; i < 3; ++i) {
    aks::MutexLock a(alpha);
    aks::MutexLock b(beta);
  }
  const Report report = capture();
  EXPECT_TRUE(report.clean()) << "consistent ordering must not report";
  reset();
}

TEST(Lockdep, HeldWhileBlockingDetected) {
  reset();
  aks::Mutex alpha{"test.lockdep.alpha"};
  aks::Mutex beta{"test.lockdep.beta"};
  aks::CondVar cv;
  {
    aks::MutexLock outer(alpha);
    aks::MutexLock inner(beta);
    (void)cv.wait_for(inner, std::chrono::milliseconds(1));
  }
  const Report report = capture();
  ASSERT_EQ(report.held_while_blocking.size(), 1u);
  const auto& violation = report.held_while_blocking[0];
  EXPECT_EQ(violation.blocked_on, "test.lockdep.beta");
  ASSERT_EQ(violation.held.size(), 1u);
  EXPECT_EQ(violation.held[0], "test.lockdep.alpha");
  EXPECT_FALSE(report.clean());
  reset();
}

TEST(Lockdep, WaitWithOnlyTheWaitMutexHeldIsClean) {
  reset();
  aks::Mutex alpha{"test.lockdep.alpha"};
  aks::CondVar cv;
  {
    aks::MutexLock lock(alpha);
    (void)cv.wait_for(lock, std::chrono::milliseconds(1));
  }
  const Report report = capture();
  EXPECT_TRUE(report.held_while_blocking.empty());
  reset();
}

// The serving-stack drill: 8 threads mixing select / select_batch /
// select_async over a persistent store with flush and compaction. The
// graph must be acyclic with no held-while-blocking, and identical across
// runs — lock nesting is program structure, so the same code paths must
// yield the same edges regardless of thread interleaving.
TEST(Lockdep, DrillGraphCleanAndDeterministicAcrossRuns) {
  LockDrillOptions options;
  options.threads = 8;
  options.requests_per_thread = 48;
  options.trace = false;  // thread-ring attach order is schedule-dependent
  const Report first = run_lock_drill(options);
  EXPECT_TRUE(first.clean())
      << first.cycles.size() << " cycle(s), "
      << first.held_while_blocking.size() << " blocking violation(s)";
  EXPECT_FALSE(first.edges.empty());

  const Report second = run_lock_drill(options);
  EXPECT_TRUE(second.clean());
  EXPECT_EQ(edge_names(first), edge_names(second));
  reset();
}

TEST(Lockdep, DrillWithTracingStaysClean) {
  LockDrillOptions options;
  options.threads = 4;
  options.requests_per_thread = 32;
  options.trace = true;
  const Report report = run_lock_drill(options);
  EXPECT_TRUE(report.clean());
  // The graph is exactly DESIGN.md "Ordering ranks" — every sanctioned
  // nesting and nothing else — so the document and the code cannot drift.
  EXPECT_EQ(edge_names(report),
            (std::vector<std::string>{"store.flush -> store.journal",
                                      "store.flush -> store.state",
                                      "store.flush -> trace.impl",
                                      "store.flush -> trace.session",
                                      "trace.session -> trace.impl"}));
  reset();
}

TEST(Lockdep, JsonExportParsesAndNamesSurvive) {
  reset();
  // Hook-driven inversion for the same reason as in
  // PlantedInversionReportsNamedCycle: keep TSan's deadlock detector out
  // of the deliberately cyclic graph.
  const std::uint32_t alpha = register_class("test.lockdep.alpha");
  const std::uint32_t beta = register_class("test.lockdep.beta");
  on_acquire(alpha);
  on_acquire(beta);
  on_release(beta);
  on_release(alpha);
  on_acquire(beta);
  on_acquire(alpha);
  on_release(alpha);
  on_release(beta);
  const Report report = capture();
  std::ostringstream json;
  write_json(report, json);
  const std::string text = json.str();
  JsonReader reader(text);
  EXPECT_TRUE(reader.parse()) << text;
  EXPECT_NE(text.find("\"classes\""), std::string::npos);
  EXPECT_NE(text.find("\"edges\""), std::string::npos);
  EXPECT_NE(text.find("\"cycles\""), std::string::npos);
  EXPECT_NE(text.find("\"held_while_blocking\""), std::string::npos);
  EXPECT_NE(text.find("test.lockdep.alpha"), std::string::npos);
  reset();
}

TEST(Lockdep, DotExportListsNodesAndEdges) {
  reset();
  aks::Mutex alpha{"test.lockdep.alpha"};
  aks::Mutex beta{"test.lockdep.beta"};
  {
    aks::MutexLock a(alpha);
    aks::MutexLock b(beta);
  }
  const Report report = capture();
  std::ostringstream dot;
  write_dot(report, dot);
  const std::string text = dot.str();
  EXPECT_EQ(text.rfind("digraph lockdep {", 0), 0u);
  EXPECT_NE(text.find("\"test.lockdep.alpha\" -> \"test.lockdep.beta\""),
            std::string::npos);
  EXPECT_EQ(text[text.size() - 2], '}');
  reset();
}

TEST(Lockdep, ResetClearsEdgesButKeepsRegistrations) {
  reset();
  aks::Mutex alpha{"test.lockdep.alpha"};
  aks::Mutex beta{"test.lockdep.beta"};
  {
    aks::MutexLock a(alpha);
    aks::MutexLock b(beta);
  }
  reset();
  const Report report = capture();
  EXPECT_TRUE(report.edges.empty());
  // The class ids survive so live mutexes keep reporting under their name.
  {
    aks::MutexLock a(alpha);
    aks::MutexLock b(beta);
  }
  const Report after = capture();
  ASSERT_EQ(after.edges.size(), 1u);
  EXPECT_EQ(after.edges[0].from_name, "test.lockdep.alpha");
  EXPECT_EQ(after.edges[0].to_name, "test.lockdep.beta");
  reset();
}

}  // namespace
}  // namespace aks::check::lockdep
