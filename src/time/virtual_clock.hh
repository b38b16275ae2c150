/**
 * @file
 * Per-node virtual clock. The clock advances by explicit charges (work
 * units, protocol costs) and by Lamport-style causal maxima when
 * messages arrive; the final per-node values are the simulated
 * execution time.
 *
 * Both the application thread and the service thread of a node advance
 * the same clock, a stand-in for the real systems' SIGIO handler
 * stealing cycles from the application processor. The stand-in is
 * coarse, and it makes the simulated time depend on host scheduling:
 * the service thread advances the shared clock to each request's
 * arrival time (Endpoint::dispatchInner) whenever it happens to
 * dispatch it, so the application's later charges land after that
 * maximum or before it depending on the wall-clock interleaving of the
 * two threads. Protocol counts are unaffected, but the same run can
 * end at different virtual times, and a faster or slower handler moves
 * them (EXPERIMENTS.md, "Homeless diff batches by reference").
 */

#ifndef DSM_TIME_VIRTUAL_CLOCK_HH
#define DSM_TIME_VIRTUAL_CLOCK_HH

#include <atomic>
#include <cstdint>

namespace dsm {

class VirtualClock
{
  public:
    VirtualClock() : nowNs(0) {}

    /** Current virtual time in nanoseconds. */
    std::uint64_t
    now() const
    {
        return nowNs.load(std::memory_order_acquire);
    }

    /** Advance by @p deltaNs; returns the new time. */
    std::uint64_t
    add(std::uint64_t delta_ns)
    {
        return nowNs.fetch_add(delta_ns, std::memory_order_acq_rel) +
               delta_ns;
    }

    /** Causal merge: now = max(now, @p t). Returns the new time. */
    std::uint64_t
    advanceTo(std::uint64_t t)
    {
        std::uint64_t cur = nowNs.load(std::memory_order_acquire);
        while (cur < t &&
               !nowNs.compare_exchange_weak(cur, t,
                                            std::memory_order_acq_rel)) {
            // cur reloaded by compare_exchange_weak.
        }
        return now();
    }

    /** Reset to zero (between runs). */
    void reset() { nowNs.store(0, std::memory_order_release); }

  private:
    std::atomic<std::uint64_t> nowNs;
};

} // namespace dsm

#endif // DSM_TIME_VIRTUAL_CLOCK_HH
