#include "net/fault.hh"

namespace isw::net {

namespace {
/**
 * Seed salt: keeps the injector's RNG tree disjoint from the
 * simulation's forkRng() streams (workers, links, PS jitter) even
 * though both descend from the job seed. Attaching a plan must not
 * shift any pre-existing stream, or a faulty run's *computation* would
 * diverge from the lossless run for RNG reasons rather than fault
 * reasons.
 */
constexpr std::uint64_t kFaultSeedSalt = 0xFA17'1A7E'D00D'5EEDULL;
} // namespace

FaultInjector::FaultInjector(sim::Simulation &sim, FaultPlan plan,
                             std::uint64_t seed)
    : sim_(sim), plan_(std::move(plan)), seed_(seed ^ kFaultSeedSalt)
{
}

void
FaultInjector::attach(std::size_t worker, Link &link)
{
    PortState st;
    st.worker = worker;
    st.rng = sim::Rng(seed_).fork(worker);
    ports_.emplace(&link, std::move(st));
    link.setChannel(this);
}

void
FaultInjector::attachSwitchLink(Link &link)
{
    switch_links_.insert(&link);
    link.setChannel(this);
}

bool
FaultInjector::linkDown(std::size_t worker, sim::TimeNs now) const
{
    for (const LinkDownWindow &w : plan_.link_down)
        if (w.worker == worker && now >= w.down_at && now < w.up_at)
            return true;
    for (const WorkerCrash &c : plan_.crashes)
        if (c.worker == worker && now >= c.crash_at + kCrashGrace &&
            (c.rejoin_at == 0 || now < c.rejoin_at))
            return true; // rejoin_at == 0: permanent fail-stop
    return false;
}

bool
FaultInjector::switchDown(sim::TimeNs now) const
{
    for (const SwitchCrash &c : plan_.switch_crashes)
        if (now >= c.crash_at && (c.rejoin_at == 0 || now < c.rejoin_at))
            return true;
    return false;
}

bool
FaultInjector::controlPartitioned(sim::TimeNs now) const
{
    for (const ControlPartition &p : plan_.control_partitions)
        if (now >= p.from && now < p.until)
            return true;
    return false;
}

double
FaultInjector::computeScale(std::size_t worker, sim::TimeNs now) const
{
    // Crash beats straggler: a crashed worker sends nothing, so there
    // is no slowed-but-delivered traffic inside a crash window. Without
    // this check an overlapping straggler window would stretch the
    // worker's LGC past its rejoin and distort the recovery timeline.
    for (const WorkerCrash &c : plan_.crashes)
        if (c.worker == worker && now >= c.crash_at &&
            (c.rejoin_at == 0 || now < c.rejoin_at))
            return 1.0;
    double scale = 1.0;
    for (const Straggler &s : plan_.stragglers)
        if (s.worker == worker && now >= s.from && now < s.until &&
            s.slowdown > scale)
            scale = s.slowdown;
    return scale;
}

FaultStats
FaultInjector::stats() const
{
    FaultStats total;
    for (const auto &kv : ports_)
        total += kv.second.stats; // integer sums: order irrelevant
    total.switch_drops = switch_drops_;
    total.partition_drops = partition_drops_;
    return total;
}

ChannelVerdict
FaultInjector::onFrame(const Link &link, const PacketPtr &pkt)
{
    ChannelVerdict v;
    // Switch-crash/partition checks come first and are stateless
    // plan-timestamp predicates.
    if (!switch_links_.empty() && switch_links_.count(&link) != 0) {
        const sim::TimeNs snow = sim_.now();
        if (switchDown(snow)) {
            ++switch_drops_;
            v.drop = true;
            return v;
        }
        if (pkt->ip.tos == kTosControl && controlPartitioned(snow)) {
            ++partition_drops_;
            v.drop = true;
            return v;
        }
    }
    auto it = ports_.find(&link);
    if (it == ports_.end())
        return v; // not a link we manage
    PortState &st = it->second;
    const sim::TimeNs now = sim_.now();

    if (linkDown(st.worker, now)) {
        ++st.stats.down_drops;
        v.drop = true;
        return v;
    }

    if (plan_.ge.enabled()) {
        // Advance the chain once per frame, then draw the state's loss.
        if (st.ge_bad) {
            if (st.rng.bernoulli(plan_.ge.p_bad_to_good))
                st.ge_bad = false;
        } else {
            if (st.rng.bernoulli(plan_.ge.p_good_to_bad))
                st.ge_bad = true;
        }
        const double p = st.ge_bad ? plan_.ge.loss_bad : plan_.ge.loss_good;
        if (p > 0.0 && st.rng.bernoulli(p)) {
            ++st.stats.ge_drops;
            v.drop = true;
            return v;
        }
    }

    if (plan_.extra_loss > 0.0 && st.rng.bernoulli(plan_.extra_loss)) {
        ++st.stats.iid_drops;
        v.drop = true;
        return v;
    }

    if (plan_.duplicate_prob > 0.0 &&
        st.rng.bernoulli(plan_.duplicate_prob)) {
        ++st.stats.duplicates;
        v.duplicate = true;
        // Duplicates trail the original by the reorder delay, so they
        // also exercise out-of-order arrival.
        v.dup_delay = plan_.reorder_delay;
    }

    if (plan_.reorder_prob > 0.0 && st.rng.bernoulli(plan_.reorder_prob)) {
        ++st.stats.reorders;
        v.delay = plan_.reorder_delay;
    }

    return v;
}

} // namespace isw::net
