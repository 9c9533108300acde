// Kernel panic and assertion machinery.
//
// A reproduction kernel must fail loudly: every invariant violation aborts the
// simulation with a message. MKC_ASSERT stays enabled in all build types
// (unlike <cassert>) because the test suite and benches rely on invariant
// checking in optimized builds.
#ifndef MACHCONT_SRC_BASE_PANIC_H_
#define MACHCONT_SRC_BASE_PANIC_H_

namespace mkc {

// Prints a formatted message to stderr and aborts. Never returns. Cold, so
// the compiler lays out every failed-check branch away from the hot path.
[[noreturn, gnu::cold]] void Panic(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

namespace panic_detail {
[[noreturn, gnu::cold]] void AssertFailed(const char* expr, const char* file, int line);
}  // namespace panic_detail

}  // namespace mkc

#define MKC_ASSERT(expr)                                               \
  do {                                                                 \
    if (!(expr)) {                                                     \
      ::mkc::panic_detail::AssertFailed(#expr, __FILE__, __LINE__);    \
    }                                                                  \
  } while (0)

#define MKC_ASSERT_MSG(expr, ...)   \
  do {                              \
    if (!(expr)) {                  \
      ::mkc::Panic(__VA_ARGS__);    \
    }                               \
  } while (0)

#endif  // MACHCONT_SRC_BASE_PANIC_H_
