// Deterministic lock-order validator (lockdep) — the runtime half of the
// concurrency contract (the compile-time half is common/thread_annotations).
//
// Every aks::Mutex (common/sync.hpp) belongs to a lock *class*,
// registered once by name ("serve.shard", "store.state", ...);
// instances of the same class — all shard stripes, all single-flight
// entries — share one class, so the order graph stays small no matter how
// many mutexes the serving layer allocates. Each acquisition made while
// other classes are held adds held → acquired edges to a process-global
// directed graph. A cycle in that graph is a deadlock *potential*: two code
// paths that disagree about lock order will eventually interleave into a
// real deadlock, even if no test schedule has hit it yet. Unlike TSan —
// which only sees the interleavings that actually ran — the edge graph is a
// function of the code paths executed, not of the thread schedule, so one
// single-threaded pass over a code path certifies its ordering for every
// schedule.
//
// Also detected: blocking on a condition variable while holding any *other*
// tracked mutex (held-while-blocking), the classic lost-wakeup/deadlock
// shape where the held lock keeps every possible signaller out.
//
// Cost: acquisitions touch a thread-local held stack plus one relaxed
// atomic add per (held, acquired) pair; with no other lock held (every hot
// path in the serving layer) it is a TLS push/pop. The validator is always
// on — every test binary doubles as a lock-order check — and reports are
// exported as DOT/JSON by `akscheck locks` or, for any binary, by setting
// AKS_LOCKDEP_OUT=<path> (JSON written at process exit).
//
// This header is dependency-free (below aks_common) so common/sync.hpp can
// call into it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace aks::check::lockdep {

/// Distinct lock classes a process may register. The serving stack uses
/// ~20; classes past the cap collapse into one shared "lockdep.overflow"
/// class (still tracked, conservatively merged).
inline constexpr std::size_t kMaxClasses = 64;

/// Held-stack depth tracked per thread; deeper nesting is counted but not
/// edge-tracked (the codebase never nests beyond 3).
inline constexpr std::size_t kMaxHeld = 16;

/// Registers (or looks up) the lock class `name` and returns its stable id.
/// Thread-safe; called from aks::Mutex constructors, including static-
/// initialization-time ones.
[[nodiscard]] std::uint32_t register_class(const char* name);

/// Name of a registered class (empty for an unknown id).
[[nodiscard]] std::string class_name(std::uint32_t cls);

/// Records an acquisition of `cls`: one held → cls edge per class currently
/// held by this thread, then pushes cls on the thread's held stack. Called
/// by the sync.hpp wrappers immediately before blocking on the underlying
/// mutex, so the edge exists even if the acquisition deadlocks.
void on_acquire(std::uint32_t cls);

/// Pops the most recent hold of `cls` from the thread's held stack.
void on_release(std::uint32_t cls);

/// Declares that the thread is about to block (condition-variable wait)
/// with `cls` released for the duration. Any *other* class still held is
/// recorded as a held-while-blocking violation.
void on_wait_block(std::uint32_t cls);

/// Classes currently held by the calling thread (innermost last).
[[nodiscard]] std::vector<std::uint32_t> held_by_this_thread();

/// Validator on/off (default on). Disabling only stops new recording;
/// already-recorded state stays reportable.
void set_enabled(bool enabled);
[[nodiscard]] bool enabled();

/// Clears recorded edges, counts and violations (class registrations
/// survive — live mutexes keep their ids). Test isolation only: callers
/// must be single-threaded with no tracked lock held.
void reset();

struct ClassInfo {
  std::uint32_t id = 0;
  std::string name;
  std::uint64_t acquisitions = 0;
};

struct EdgeInfo {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::string from_name;
  std::string to_name;
  std::uint64_t count = 0;
  /// Held stack (outermost first, names) at the edge's first observation.
  std::vector<std::string> witness;
};

/// One lock-order cycle: the class names along the closed walk, starting at
/// the smallest participating id. names = {A, B} reads A → B → A.
struct CycleInfo {
  std::vector<std::uint32_t> classes;
  std::vector<std::string> names;
};

struct ViolationInfo {
  std::string blocked_on;          ///< the class whose condvar was waited
  std::vector<std::string> held;   ///< other classes held while blocking
  std::uint64_t count = 0;
};

struct Report {
  std::vector<ClassInfo> classes;            ///< by id, registration order
  std::vector<EdgeInfo> edges;               ///< sorted by (from, to)
  std::vector<CycleInfo> cycles;             ///< empty == acyclic
  std::vector<ViolationInfo> held_while_blocking;
  [[nodiscard]] bool clean() const {
    return cycles.empty() && held_while_blocking.empty();
  }
};

/// Snapshot of the graph with cycle detection run (Tarjan SCC; one
/// representative cycle per strongly connected component, plus self-loops).
/// Deterministic given the set of code paths executed: edges depend on
/// lock nesting, which is program structure, not thread schedule.
[[nodiscard]] Report capture();

/// Graphviz DOT export: one node per class (acquisition count in the
/// label), one edge per observed ordering, cycle edges highlighted red.
void write_dot(const Report& report, std::ostream& out);

/// JSON export; schema: {"classes": [{id, name, acquisitions}], "edges":
/// [{from, to, count, witness[]}], "cycles": [[names...]],
/// "held_while_blocking": [{blocked_on, held[], count}]}.
void write_json(const Report& report, std::ostream& out);

}  // namespace aks::check::lockdep
