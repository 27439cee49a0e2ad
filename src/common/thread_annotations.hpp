// Portable Clang Thread Safety Analysis macros — the compile-time half of
// the concurrency contract (the runtime half is check/lockdep.hpp).
//
// Under Clang the macros expand to the thread-safety attributes, so a
// `-Wthread-safety` build statically proves that every access to an
// `AKS_GUARDED_BY` member happens with its mutex held and that every
// `AKS_REQUIRES` callee is entered with the right capability. Under any
// other compiler they expand to nothing, so GCC builds are unaffected.
//
// Use through the annotated primitives in common/sync.hpp (aks::Mutex,
// aks::CondVar and the MutexLock guard); raw std::mutex
// members cannot participate in the analysis. The negative compile tests
// under tests/compile_fail/ prove the macros are live on Clang: a planted
// guarded-state violation must fail the build.
#pragma once

#if defined(__clang__) && (!defined(SWIG))
#define AKS_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define AKS_THREAD_ANNOTATION_ATTRIBUTE(x)  // no-op off Clang
#endif

/// Declares a class to be a capability (lockable) type.
#define AKS_CAPABILITY(x) AKS_THREAD_ANNOTATION_ATTRIBUTE(capability(x))

/// Declares an RAII class whose lifetime equals a capability hold.
#define AKS_SCOPED_CAPABILITY AKS_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

/// Data member readable/writable only with `x` held.
#define AKS_GUARDED_BY(x) AKS_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

/// Pointer member whose *pointee* is guarded by `x`.
#define AKS_PT_GUARDED_BY(x) AKS_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))

/// Function that must be entered with the capability held.
#define AKS_REQUIRES(...) \
  AKS_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))

/// Function that acquires the capability (held on return).
#define AKS_ACQUIRE(...) \
  AKS_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))

/// Function that releases a held capability.
#define AKS_RELEASE(...) \
  AKS_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))

/// Function that tries to acquire; first argument is the success value.
#define AKS_TRY_ACQUIRE(...) \
  AKS_THREAD_ANNOTATION_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))

/// Function that must be entered with the capability NOT held (deadlock
/// guard for self-locking public APIs).
#define AKS_EXCLUDES(...) \
  AKS_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))

/// Asserts (at runtime) that the calling thread holds the capability; tells
/// the analysis to assume it from here on.
#define AKS_ASSERT_CAPABILITY(x) \
  AKS_THREAD_ANNOTATION_ATTRIBUTE(assert_capability(x))

/// Function returning a reference to the capability guarding its result.
#define AKS_RETURN_CAPABILITY(x) \
  AKS_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))

/// Escape hatch: the function is exempt from analysis. Every use must carry
/// a comment explaining which protocol (e.g. release/acquire publication)
/// replaces the mutex the analysis cannot see.
#define AKS_NO_THREAD_SAFETY_ANALYSIS \
  AKS_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)
