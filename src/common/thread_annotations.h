// Clang thread-safety-analysis annotation macros (no-ops on GCC and
// other compilers).  Annotate mutexes as capabilities, data as
// GUARDED_BY its mutex, and functions with the locks they REQUIRE or
// EXCLUDE; then `-Wthread-safety` (enabled automatically under Clang,
// see the `tidy` CMake preset) machine-checks the locking discipline.
//
// Conventions in this repo (see docs/GUIDE.md "Concurrency discipline"):
//   - every mutex-protected member carries BMR_GUARDED_BY(mu_)
//   - private *Locked() helpers carry BMR_REQUIRES(mu_)
//   - public entry points that take the lock carry BMR_EXCLUDES(mu_)
#pragma once

#if defined(__clang__)
#define BMR_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define BMR_THREAD_ANNOTATION_(x)  // no-op outside Clang
#endif

// A type that acts as a lock (bmr::Mutex, bmr::OrderedMutex).
#define BMR_CAPABILITY(x) BMR_THREAD_ANNOTATION_(capability(x))

// An RAII type that acquires a capability in its constructor and
// releases it in its destructor (bmr::MutexLock).
#define BMR_SCOPED_CAPABILITY BMR_THREAD_ANNOTATION_(scoped_lockable)

// Data members protected by a mutex (directly / through a pointer).
#define BMR_GUARDED_BY(x) BMR_THREAD_ANNOTATION_(guarded_by(x))
#define BMR_PT_GUARDED_BY(x) BMR_THREAD_ANNOTATION_(pt_guarded_by(x))

// Functions that acquire / release a capability.
#define BMR_ACQUIRE(...) \
  BMR_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define BMR_RELEASE(...) \
  BMR_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define BMR_TRY_ACQUIRE(...) \
  BMR_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

// Functions that must be called with / without the capability held.
#define BMR_REQUIRES(...) \
  BMR_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define BMR_EXCLUDES(...) BMR_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

// Assert (at analysis level) that the capability is already held.
#define BMR_ASSERT_CAPABILITY(x) \
  BMR_THREAD_ANNOTATION_(assert_capability(x))

// A function returning a reference to the capability guarding its
// result (rarely needed; prefer returning copies out of the lock).
#define BMR_RETURN_CAPABILITY(x) BMR_THREAD_ANNOTATION_(lock_returned(x))

// Declares a static lock-order edge for tools/bmr_check: the
// OrderedMutex declared immediately after this annotation may be
// acquired while the named lock(s) are held (GUIDE §7 canonical order,
// GUIDE §12 static analysis).  Expands to nothing — the runtime
// detector (common/lock_order.h) learns the same edges dynamically;
// this makes the documented order checkable before any test runs.
//   BMR_ACQUIRED_AFTER("mr.task_scheduler")
//   OrderedMutex mu_{"mr.shuffle.tracker"};
#define BMR_ACQUIRED_AFTER(...)

// Escape hatch for code the analysis cannot express.  Every use must
// carry a comment justifying why the locking is still correct.
#define BMR_NO_THREAD_SAFETY_ANALYSIS \
  BMR_THREAD_ANNOTATION_(no_thread_safety_analysis)
