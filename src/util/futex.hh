/**
 * @file
 * Park/wake on a 32-bit word, plus a busy-wait hint. On Linux the
 * park is a raw private futex — noticeably cheaper than
 * std::atomic::wait, whose libstdc++ implementation routes through a
 * global proxy-waiter table with its own bookkeeping atomics on both
 * sides. The kernel re-checks the word atomically on wait, so callers
 * only need the usual advertise-then-recheck protocol.
 */

#ifndef DSM_UTIL_FUTEX_HH
#define DSM_UTIL_FUTEX_HH

#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdint>
#include <ctime>
#include <thread>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace dsm {

/**
 * Sleep while @p word still holds @p expected, at most @p timeout_ns.
 * Returns false on timeout, true otherwise (woken, spurious or value
 * mismatch). The non-Linux fallback polls in short sleeps —
 * correctness only, the Linux path is the product one.
 */
inline bool
futexWaitTimed(std::atomic<std::uint32_t> &word, std::uint32_t expected,
               std::uint64_t timeout_ns)
{
#if defined(__linux__)
    struct timespec ts;
    ts.tv_sec = static_cast<time_t>(timeout_ns / 1000000000ull);
    ts.tv_nsec = static_cast<long>(timeout_ns % 1000000000ull);
    const long rc =
        syscall(SYS_futex, reinterpret_cast<std::uint32_t *>(&word),
                FUTEX_WAIT_PRIVATE, expected, &ts, nullptr, 0);
    return !(rc == -1 && errno == ETIMEDOUT);
#else
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::nanoseconds(timeout_ns);
    while (word.load(std::memory_order_acquire) == expected) {
        if (std::chrono::steady_clock::now() >= deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    return true;
#endif
}

/** Wake every thread parked on @p word. */
inline void
futexWakeAll(std::atomic<std::uint32_t> &word)
{
#if defined(__linux__)
    syscall(SYS_futex, reinterpret_cast<std::uint32_t *>(&word),
            FUTEX_WAKE_PRIVATE, INT_MAX, nullptr, nullptr, 0);
#else
    word.notify_all();
#endif
}

/** Busy-wait hint; keeps a spinning thread off the bus. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#else
    std::this_thread::yield();
#endif
}

} // namespace dsm

#endif // DSM_UTIL_FUTEX_HH
