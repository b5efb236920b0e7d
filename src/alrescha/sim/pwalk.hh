/**
 * @file
 * The timing walk over a compiled ExecSchedule: one in-order pass per
 * run.
 *
 * Timing a run is a left-to-right scan of the schedule's paths (the
 * config table's in-order data-path stream) whose only *stateful*
 * ingredient is the RCU local cache: every other per-path charge
 * (reconfig, fill, stream, issue) is a schedule constant.  Each walk
 * replays the run's first reconfiguration through the real RCU, then
 * takes a run-local image of the cache lines (CacheModel::Shadow) and
 * visits the paths in order, resolving every Out write, operand read,
 * diagonal critical read, and x^t write against the image the moment
 * it happens.  The same loop emits the profile charges, timeline
 * events, and D-SymGS chain records in path order; the line image and
 * the batched counters are installed once at the end.  Results,
 * cycles, stat dumps, timelines, and profiles are bit-for-bit identical
 * to the per-entry reference model in tests/engine_reference.hh.
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

namespace pwalk {

/** The engine state a walk reads and flushes into. */
struct Ctx
{
    const AccelParams &params;
    Rcu &rcu;
    MemoryModel &memory;
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
 * real RCU, walks the cache trace in path order, flushes the
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
