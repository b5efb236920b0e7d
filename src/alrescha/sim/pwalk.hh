/**
 * @file
 * The timing walk over a compiled ExecSchedule, partitioned so it can
 * run on the engine pool.
 *
 * Timing a run is a left-to-right scan of the schedule's paths (the
 * config table's in-order data-path stream) whose only *stateful*
 * ingredient is the RCU local cache: every other per-path charge
 * (reconfig, fill, stream, issue) is a schedule constant.  The cache
 * access trace is itself schedule-static -- which line each access
 * maps to and which tag it installs never depend on runtime values --
 * and a direct-mapped line's post-access state is the accessed tag
 * regardless of what it held before.  Those two facts make the walk
 * partition-composable:
 *
 *  1. Partition the path sequence at the schedule's fixed partBegin
 *     boundaries (a schedule constant, never the thread count).
 *  2. Replay each partition -- on the pool, or inline without one --
 *     against a private shadow copy of the line array.  Every access
 *     except the *first* one to each line resolves exactly (the first
 *     access installed a known tag); the at-most-lineCount unresolved
 *     "boundary" accesses per partition are recorded instead of
 *     guessed.
 *  3. Combine in partition order: resolve each partition's boundary
 *     accesses against the composed predecessor state, apply its final
 *     line images, and prefix-sum its cycle total.
 *  4. One in-order arithmetic scan over the resolved per-access results
 *     then emits the profile buckets and timeline events in path order
 *     and re-derives the run cycles, asserting at every partition
 *     boundary that the prefix sums agree (the per-partition
 *     conservation oracle).
 *
 * The combination is an ordered reduction over fixed partitions, so
 * results, cycles, stat dumps, timelines, and profiles are bit-for-bit
 * identical at any thread count -- including one -- to the per-entry
 * reference model in tests/engine_reference.hh.
 */

#ifndef ALR_ALRESCHA_SIM_PWALK_HH
#define ALR_ALRESCHA_SIM_PWALK_HH

#include <cstddef>
#include <cstdint>

#include "alrescha/params.hh"
#include "alrescha/sim/profile.hh"
#include "alrescha/sim/schedule.hh"

namespace alr {

class Rcu;
class MemoryModel;
class ThreadPool;

namespace pwalk {

/** The engine state a partitioned walk reads and flushes into. */
struct Ctx
{
    const AccelParams &params;
    Rcu &rcu;
    MemoryModel &memory;
    /** Pool for the partition replay; nullptr runs partitions inline
     *  (same partitioned algorithm, no worker threads). */
    ThreadPool *pool;
    /** Engine cumulative cycles at run start (timeline base). */
    uint64_t tlBase;
};

/** Pre-drain timing of a GEMV-class walk (the engine adds the drain). */
struct GemvTiming
{
    uint64_t cycles = 0;
    uint64_t parCycles = 0;
};

/** The two D-SymGS timelines plus the serialized chain total. */
struct SymgsTiming
{
    uint64_t streamT = 0;
    uint64_t depT = 0;
    uint64_t seqCycles = 0;
};

/**
 * Timing walk for SpMV (@p k == 0) or SpMM with @p k right-hand sides
 * (@p k >= 1).  Replays the run's first reconfiguration through the
 * real RCU, walks the cache trace in partitions, flushes the
 * cache/memory counter deltas, and emits profile charges into @p prof
 * (and timeline events for SpMV) in path order.  Does NOT flush the
 * schedule's per-run stat totals and does NOT add the end-of-run
 * drain -- the caller (Engine) keeps those.
 */
GemvTiming gemvWalk(const Ctx &ctx, const ExecSchedule &S, size_t k,
                    profile::RunScope &prof);

/**
 * Timing walk for one D-SymGS sweep.  Purely the timing model: the
 * functional sweep (gathers, link stack, chains) must already have run
 * -- the walk simulates the link-stack depth from @p initial_link_depth
 * (its value before the functional pass) for the timeline occupancy
 * counter instead of touching the real stack.  Profile charges, chain
 * records, and timeline events are emitted in path order; commitSymgs
 * stays with the caller.
 */
SymgsTiming symgsWalk(const Ctx &ctx, const ExecSchedule &S,
                      size_t initial_link_depth,
                      profile::RunScope &prof);

} // namespace pwalk
} // namespace alr

#endif // ALR_ALRESCHA_SIM_PWALK_HH
