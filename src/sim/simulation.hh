/**
 * @file
 * Simulation context: clock + event queue + RNG.
 *
 * Every simulated entity (link, switch, worker, ...) holds a reference
 * to one Simulation and interacts with the world exclusively through
 * it, which keeps runs deterministic. A Simulation is single-threaded:
 * one serial event queue executes every event in (time, insertion)
 * order. Independent Simulations may run on different threads.
 */

#ifndef ISW_SIM_SIMULATION_HH
#define ISW_SIM_SIMULATION_HH

#include <cstdint>

#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/time.hh"

namespace isw::sim {

/**
 * Owner of all cross-cutting simulation state.
 *
 * Not copyable or movable: entities capture `Simulation&`.
 */
class Simulation
{
  public:
    explicit Simulation(std::uint64_t seed = 1)
        : root_rng_(seed), next_stream_(0)
    {}

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    TimeNs now() const { return events_.now(); }

    EventQueue &events() { return events_; }

    /** Root RNG. Prefer forkRng() for per-entity streams. */
    Rng &rng() { return root_rng_; }

    /** Hand out the next independent RNG substream. */
    Rng forkRng() { return root_rng_.fork(next_stream_++); }

    /** Convenience: schedule relative to now. */
    EventId after(TimeNs delay, EventQueue::Callback cb)
    {
        return events_.scheduleAfter(delay, std::move(cb));
    }

    /** Convenience: schedule at absolute time. */
    EventId at(TimeNs when, EventQueue::Callback cb)
    {
        return events_.schedule(when, std::move(cb));
    }

    /** Cancel an event by handle (kInvalidEventId is a no-op). */
    bool cancelEvent(EventId id) { return events_.cancel(id); }

    /** Run everything (bounded by @p max_events as a runaway guard). */
    std::size_t run(std::size_t max_events = SIZE_MAX)
    {
        return events_.runAll(max_events);
    }

    /** Run until simulated @p deadline. */
    std::size_t runUntil(TimeNs deadline)
    {
        return events_.runUntil(deadline);
    }

    /** Events executed so far. */
    std::uint64_t eventsExecuted() const { return events_.executed(); }

    /** Events still pending. */
    std::size_t pendingEvents() const { return events_.pending(); }

    /** True when no runnable events remain. */
    bool queueEmpty() const { return events_.empty(); }

  private:
    EventQueue events_;
    Rng root_rng_;
    std::uint64_t next_stream_;
};

} // namespace isw::sim

#endif // ISW_SIM_SIMULATION_HH
