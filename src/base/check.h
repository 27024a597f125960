#ifndef MOCOGRAD_BASE_CHECK_H_
#define MOCOGRAD_BASE_CHECK_H_

#include <sstream>
#include <string>

namespace mocograd {
namespace internal {

/// Formats the failure banner and aborts the process. Used by the MG_CHECK
/// family below; never returns.
[[noreturn]] void CheckFail(const char* file, int line, const char* expr,
                            const std::string& message);

/// Concatenates an arbitrary list of streamable values into one string.
template <typename... Args>
std::string StrCatForCheck(const Args&... args) {
  std::ostringstream oss;
  ((oss << args), ...);
  return oss.str();
}

}  // namespace internal
}  // namespace mocograd

/// Aborts with a diagnostic when `cond` is false. Additional arguments are
/// streamed into the failure message. These are programmer-error assertions
/// (shape mismatches, invariant violations); recoverable errors use Status.
#define MG_CHECK(cond, ...)                                           \
  do {                                                                \
    if (!(cond)) {                                                    \
      ::mocograd::internal::CheckFail(                                \
          __FILE__, __LINE__, #cond,                                  \
          ::mocograd::internal::StrCatForCheck(__VA_ARGS__));         \
    }                                                                 \
  } while (0)

#define MG_CHECK_OP(op, a, b, ...)                                    \
  do {                                                                \
    const auto& mg_check_a_ = (a);                                    \
    const auto& mg_check_b_ = (b);                                    \
    if (!(mg_check_a_ op mg_check_b_)) {                              \
      ::mocograd::internal::CheckFail(                                \
          __FILE__, __LINE__, #a " " #op " " #b,                      \
          ::mocograd::internal::StrCatForCheck(                       \
              "(", mg_check_a_, " vs ", mg_check_b_, ") ",            \
              ##__VA_ARGS__));                                        \
    }                                                                 \
  } while (0)

#define MG_CHECK_EQ(a, b, ...) MG_CHECK_OP(==, a, b, ##__VA_ARGS__)
#define MG_CHECK_NE(a, b, ...) MG_CHECK_OP(!=, a, b, ##__VA_ARGS__)
#define MG_CHECK_LT(a, b, ...) MG_CHECK_OP(<, a, b, ##__VA_ARGS__)
#define MG_CHECK_LE(a, b, ...) MG_CHECK_OP(<=, a, b, ##__VA_ARGS__)
#define MG_CHECK_GT(a, b, ...) MG_CHECK_OP(>, a, b, ##__VA_ARGS__)
#define MG_CHECK_GE(a, b, ...) MG_CHECK_OP(>=, a, b, ##__VA_ARGS__)

/// Unconditional failure, for unreachable branches.
#define MG_FATAL(...)                                                 \
  ::mocograd::internal::CheckFail(                                    \
      __FILE__, __LINE__, "FATAL",                                    \
      ::mocograd::internal::StrCatForCheck(__VA_ARGS__))

/// Debug-only checks: same diagnostics as MG_CHECK, compiled out of Release
/// builds so hot paths (arena allocation, microkernel setup) pay nothing.
/// Active in Debug builds and in every sanitized / poisoned configuration
/// (MOCOGRAD_DEBUG_POISON), so the sanitizer CI lanes exercise them on the
/// full test suite. Condition and arguments are NOT evaluated when disabled
/// — never put side effects inside an MG_DCHECK.
#if !defined(NDEBUG) || defined(MOCOGRAD_DEBUG_POISON)
#define MOCOGRAD_DCHECK_ENABLED 1
#else
#define MOCOGRAD_DCHECK_ENABLED 0
#endif

#if MOCOGRAD_DCHECK_ENABLED
#define MG_DCHECK(cond, ...) MG_CHECK(cond, ##__VA_ARGS__)
#define MG_DCHECK_EQ(a, b, ...) MG_CHECK_EQ(a, b, ##__VA_ARGS__)
#define MG_DCHECK_NE(a, b, ...) MG_CHECK_NE(a, b, ##__VA_ARGS__)
#define MG_DCHECK_LT(a, b, ...) MG_CHECK_LT(a, b, ##__VA_ARGS__)
#define MG_DCHECK_LE(a, b, ...) MG_CHECK_LE(a, b, ##__VA_ARGS__)
#define MG_DCHECK_GT(a, b, ...) MG_CHECK_GT(a, b, ##__VA_ARGS__)
#define MG_DCHECK_GE(a, b, ...) MG_CHECK_GE(a, b, ##__VA_ARGS__)
#else
#define MG_DCHECK(cond, ...) do { (void)sizeof(!(cond)); } while (0)
#define MG_DCHECK_EQ(a, b, ...) do { (void)sizeof((a) == (b)); } while (0)
#define MG_DCHECK_NE(a, b, ...) do { (void)sizeof((a) != (b)); } while (0)
#define MG_DCHECK_LT(a, b, ...) do { (void)sizeof((a) < (b)); } while (0)
#define MG_DCHECK_LE(a, b, ...) do { (void)sizeof((a) <= (b)); } while (0)
#define MG_DCHECK_GT(a, b, ...) do { (void)sizeof((a) > (b)); } while (0)
#define MG_DCHECK_GE(a, b, ...) do { (void)sizeof((a) >= (b)); } while (0)
#endif

// ---------------------------------------------------------------------------
// Thread-safety capability annotations (Clang -Wthread-safety).
//
// The fork–join contract (docs/ARCHITECTURE.md) and the lock discipline of
// the concurrent components (thread pool, autograd executor, tracer,
// metrics registry, telemetry sink, watchdog) are proved at compile
// time on Clang: fields carry MG_GUARDED_BY(mu), functions that expect the
// lock held carry MG_REQUIRES(mu), and the base/mutex.h wrapper types carry
// the acquire/release capability transitions. GCC and MSVC compile the
// macros to nothing — annotations never change codegen, only diagnostics.
// The release CI leg builds with Clang and -Werror=thread-safety so a
// guarded field touched without its lock fails the build
// (docs/CORRECTNESS.md "Lock discipline").

#if defined(__clang__)
#define MG_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define MG_THREAD_ANNOTATION_(x)
#endif

/// Marks a type as a lockable capability ("mutex").
#define MG_CAPABILITY(x) MG_THREAD_ANNOTATION_(capability(x))
/// Marks a RAII type whose constructor acquires and destructor releases.
#define MG_SCOPED_CAPABILITY MG_THREAD_ANNOTATION_(scoped_lockable)
/// Field/variable is protected by the given capability.
#define MG_GUARDED_BY(x) MG_THREAD_ANNOTATION_(guarded_by(x))
/// Pointed-to data is protected by the given capability.
#define MG_PT_GUARDED_BY(x) MG_THREAD_ANNOTATION_(pt_guarded_by(x))
/// Function requires the capability held on entry (and keeps it held).
#define MG_REQUIRES(...) \
  MG_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
/// Function acquires the capability; caller must not already hold it.
#define MG_ACQUIRE(...) \
  MG_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
/// Function releases the capability; caller must hold it.
#define MG_RELEASE(...) \
  MG_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
/// Function acquires the capability iff it returns the given value.
#define MG_TRY_ACQUIRE(...) \
  MG_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
/// Function must NOT be called with the capability held (deadlock guard).
#define MG_EXCLUDES(...) MG_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
/// Return value is the capability guarding the annotated data.
#define MG_RETURN_CAPABILITY(x) MG_THREAD_ANNOTATION_(lock_returned(x))
/// Escape hatch: the function's locking is correct for reasons the analysis
/// cannot see (pair with a comment saying why).
#define MG_NO_THREAD_SAFETY_ANALYSIS \
  MG_THREAD_ANNOTATION_(no_thread_safety_analysis)

#endif  // MOCOGRAD_BASE_CHECK_H_
