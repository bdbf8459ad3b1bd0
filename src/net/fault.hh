/**
 * @file
 * Declarative, seed-deterministic fault injection.
 *
 * A FaultPlan describes *what* goes wrong — bursty (Gilbert–Elliott)
 * loss, extra iid loss, duplication, reordering, timed link-down
 * windows, worker crash/rejoin cycles, straggler slowdowns — and a
 * FaultInjector executes it by installing itself as the ChannelModel
 * of the affected edge links. All randomness comes from a private RNG
 * tree seeded from (job seed, worker index), so attaching a plan never
 * perturbs the RNG streams of the rest of the simulation: a lossless
 * run with and without the subsystem compiled in is bit-identical, and
 * two runs of the same plan are too.
 *
 * Crash semantics are fail-stop with warm restart: during
 * [crash_at + grace, rejoin_at) every frame to or from the worker is
 * dropped; the worker's in-memory training state survives. The small
 * grace lets a Leave control frame sent at the crash instant escape,
 * so plans can drive the control plane's real Leave/Join actions
 * (paper Table 2) and the switch's auto-H recomputation.
 */

#ifndef ISW_NET_FAULT_HH
#define ISW_NET_FAULT_HH

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/link.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"
#include "sim/time.hh"

namespace isw::net {

/**
 * Two-state Gilbert–Elliott loss chain, advanced once per frame.
 * The canonical model of bursty loss: mostly-clean "good" periods
 * interrupted by short "bad" bursts with high drop probability.
 */
struct GilbertElliott
{
    double p_good_to_bad = 0.0; ///< per-frame G->B transition probability
    double p_bad_to_good = 0.0; ///< per-frame B->G transition probability
    double loss_good = 0.0;     ///< drop probability while good
    double loss_bad = 0.0;      ///< drop probability while bad

    bool
    enabled() const
    {
        return p_good_to_bad > 0.0 || loss_good > 0.0 || loss_bad > 0.0;
    }
};

/** Drop everything on @p worker's edge link during [down_at, up_at). */
struct LinkDownWindow
{
    std::size_t worker = 0;
    sim::TimeNs down_at = 0;
    sim::TimeNs up_at = 0;
};

/**
 * Fail-stop crash at crash_at, warm rejoin at rejoin_at.
 * rejoin_at == 0 means *permanent* fail-stop: the worker never comes
 * back (the long-soak scenario behind switch failover testing).
 */
struct WorkerCrash
{
    std::size_t worker = 0;
    sim::TimeNs crash_at = 0;
    sim::TimeNs rejoin_at = 0;
    /**
     * Announce the crash/recovery to the control plane: a Leave is
     * sent at the crash instant and a Join at rejoin, driving the
     * switch's membership table and auto-H recomputation. false models
     * a silent partition (the cluster must ride it out via recovery).
     */
    bool announce = true;
};

/**
 * Crash of the primary aggregation switch: every frame touching the
 * switch (data, control, results, heartbeats, replication) is dropped
 * during [crash_at, rejoin_at). rejoin_at == 0 means the switch never
 * rejoins — the expected shape for failover runs, since the HA layer
 * is fail-stop (a promoted backup never demotes).
 */
struct SwitchCrash
{
    sim::TimeNs crash_at = 0;
    sim::TimeNs rejoin_at = 0;
};

/**
 * Control-plane partition: only control frames (kTosControl — joins,
 * leaves, helps, heartbeats) touching the primary switch are dropped
 * during [from, until); the data plane keeps flowing.
 */
struct ControlPartition
{
    sim::TimeNs from = 0;
    sim::TimeNs until = 0;
};

/** Scale @p worker's local compute by @p slowdown during a window. */
struct Straggler
{
    std::size_t worker = 0;
    double slowdown = 1.0; ///< multiplier on LGC durations (>= 1)
    sim::TimeNs from = 0;
    sim::TimeNs until = std::numeric_limits<sim::TimeNs>::max();
};

/** The full declarative fault schedule for one run. */
struct FaultPlan
{
    GilbertElliott ge;
    /** Extra iid loss, independent of LinkConfig::loss_prob. */
    double extra_loss = 0.0;
    /** Probability a frame is delivered twice. */
    double duplicate_prob = 0.0;
    /** Probability a frame is delayed by reorder_delay (overtaken). */
    double reorder_prob = 0.0;
    sim::TimeNs reorder_delay = 50 * sim::kUsec;
    std::vector<LinkDownWindow> link_down;
    std::vector<WorkerCrash> crashes;
    std::vector<Straggler> stragglers;
    std::vector<SwitchCrash> switch_crashes;
    std::vector<ControlPartition> control_partitions;

    bool
    empty() const
    {
        return !ge.enabled() && extra_loss <= 0.0 &&
               duplicate_prob <= 0.0 && reorder_prob <= 0.0 &&
               link_down.empty() && crashes.empty() &&
               stragglers.empty() && switch_crashes.empty() &&
               control_partitions.empty();
    }

    bool
    hasSwitchFaults() const
    {
        return !switch_crashes.empty() || !control_partitions.empty();
    }
};

/** Deterministic counters of what the injector actually did. */
struct FaultStats
{
    std::uint64_t ge_drops = 0;   ///< dropped by the Gilbert–Elliott chain
    std::uint64_t iid_drops = 0;  ///< dropped by extra_loss
    std::uint64_t down_drops = 0; ///< dropped inside down/crash windows
    std::uint64_t duplicates = 0;
    std::uint64_t reorders = 0;
    std::uint64_t switch_drops = 0;    ///< dropped by switch-crash windows
    std::uint64_t partition_drops = 0; ///< control frames dropped by partitions

    FaultStats &operator+=(const FaultStats &o)
    {
        ge_drops += o.ge_drops;
        iid_drops += o.iid_drops;
        down_drops += o.down_drops;
        duplicates += o.duplicates;
        reorders += o.reorders;
        switch_drops += o.switch_drops;
        partition_drops += o.partition_drops;
        return *this;
    }
};

/**
 * Executes a FaultPlan on the edge links of a cluster. Attach once per
 * worker (`attach(i, link)`); the injector becomes the link's
 * ChannelModel. Crash/down windows are evaluated by timestamp (no
 * events scheduled), so an attached-but-empty plan costs one virtual
 * call per frame and changes nothing else.
 */
class FaultInjector : public ChannelModel
{
  public:
    /** Grace after crash_at during which the Leave frame escapes. */
    static constexpr sim::TimeNs kCrashGrace = 1 * sim::kUsec;

    FaultInjector(sim::Simulation &sim, FaultPlan plan, std::uint64_t seed);

    /** Register @p link as @p worker's edge link and install self. */
    void attach(std::size_t worker, Link &link);

    /**
     * Register @p link as one of the primary switch's links and
     * install self. Switch links may also be registered edge links (a
     * star fabric's worker links *are* the switch's links): the
     * switch-crash check runs first, then the per-worker machinery.
     */
    void attachSwitchLink(Link &link);

    ChannelVerdict onFrame(const Link &link, const PacketPtr &pkt) override;

    /** Is @p worker unreachable right now (crash or down window)? */
    bool linkDown(std::size_t worker, sim::TimeNs now) const;

    /** Is the primary switch inside a crash window at @p now? */
    bool switchDown(sim::TimeNs now) const;

    /** Is the control plane partitioned from the switch at @p now? */
    bool controlPartitioned(sim::TimeNs now) const;

    /** Straggler compute multiplier for @p worker at @p now (>= 1). */
    double computeScale(std::size_t worker, sim::TimeNs now) const;

    const FaultPlan &plan() const { return plan_; }
    /** Aggregate counters across all attached links (the live
     *  counters are per-port; summed on demand). */
    FaultStats stats() const;

  private:
    /**
     * Per-edge-link state: the GE chain, the RNG, and the fault
     * counters. One RNG stream per link keeps each link's loss draws
     * independent of traffic on every other link.
     */
    struct PortState
    {
        std::size_t worker = 0;
        bool ge_bad = false; ///< Gilbert–Elliott chain state
        sim::Rng rng;
        FaultStats stats;
    };

    sim::Simulation &sim_;
    FaultPlan plan_;
    std::uint64_t seed_ = 0;
    /** Read-only after attach() (runtime lookups never mutate). */
    std::unordered_map<const Link *, PortState> ports_;
    /**
     * The primary switch's links. Their crash/partition checks are
     * stateless timestamp predicates, so they need no PortState.
     */
    std::unordered_set<const Link *> switch_links_;
    std::uint64_t switch_drops_ = 0;
    std::uint64_t partition_drops_ = 0;
};

} // namespace isw::net

#endif // ISW_NET_FAULT_HH
