#include "dist/cluster.hh"

#include <algorithm>
#include <stdexcept>

namespace isw::dist {

core::ProgrammableSwitch *
Cluster::leafOf(std::size_t i) const
{
    if (workersPerRack == 0)
        return leaves.at(0);
    return leaves.at(i / workersPerRack);
}

std::vector<core::ProgrammableSwitch *>
Cluster::aggregators() const
{
    std::vector<core::ProgrammableSwitch *> out(leaves);
    out.insert(out.end(), aggs.begin(), aggs.end());
    if (root != nullptr && std::find(out.begin(), out.end(), root) == out.end())
        out.push_back(root);
    if (backup != nullptr)
        out.push_back(backup);
    return out;
}

namespace {

/** Switch config at @p ip, under @p parent (nullptr = a root). */
core::ProgrammableSwitchConfig
switchConfig(const ClusterConfig &cfg, net::Ipv4Addr ip,
             const core::ProgrammableSwitch *parent = nullptr)
{
    core::ProgrammableSwitchConfig sc;
    sc.base = cfg.switch_cfg;
    sc.accel = cfg.accel;
    sc.ip = ip;
    sc.udp_port = kSwitchPort;
    if (parent != nullptr) {
        sc.parent = parent->ip();
        sc.parent_port = kSwitchPort;
    }
    return sc;
}

/**
 * The one hierarchical builder behind buildTreeCluster and
 * buildFatTreeCluster (DESIGN.md §13). Racks of per_rack workers hang
 * off ToRs. With @p agg_layer, racks_per_pod ToRs share one AGG switch
 * per pod and the AGGs sit under the core; without it the ToRs sit
 * under the core directly (a 2-layer tree is a fat-tree with no AGG
 * layer). Every switch joins its parent as a kSwitch member, so each
 * level's auto-threshold counts its children. Creation order is part
 * of the result: links fork RNG streams.
 */
Cluster
buildHierarchy(sim::Simulation &s, const ClusterConfig &cfg, bool agg_layer)
{
    const std::string who =
        agg_layer ? "buildFatTreeCluster: " : "buildTreeCluster: ";
    const auto reject = [&who](const char *why) {
        throw std::invalid_argument(who + why);
    };
    if (cfg.per_rack == 0)
        reject("per_rack == 0");
    if (cfg.per_rack > 250)
        reject("per_rack exceeds the 10.0.rack.x address plan");
    if (agg_layer && cfg.racks_per_pod == 0)
        reject("racks_per_pod == 0");
    if (cfg.num_workers == 0)
        reject("num_workers == 0"); // no rack to hang PS shards off
    const std::size_t racks =
        (cfg.num_workers + cfg.per_rack - 1) / cfg.per_rack;
    if (racks > 250)
        reject("too many racks for the 10.0.rack.x address plan");
    const std::size_t shards =
        cfg.with_ps ? std::max<std::size_t>(cfg.ps_shards, 1) : 0;
    if (shards > 250)
        reject("too many PS shards for the 10.0.254.x address plan");
    if (cfg.ha.with_backup && cfg.accel.num_slots != 0)
        reject("HA backups require the unbounded dedicated-switch slot "
               "model (accel.num_slots == 0)");

    Cluster c;
    c.topo = std::make_unique<net::Topology>(s);
    c.workersPerRack = cfg.per_rack;
    const std::size_t ha_ports = cfg.ha.with_backup ? 1 : 0;
    // The root's children: one AGG per pod, or every ToR.
    const std::size_t fanout =
        agg_layer ? (racks + cfg.racks_per_pod - 1) / cfg.racks_per_pod
                  : racks;
    const net::LinkConfig &root_link =
        agg_layer ? cfg.core_link : cfg.uplink;

    auto *root = c.topo->addSwitch<core::ProgrammableSwitch>(
        "core", fanout + ha_ports,
        switchConfig(cfg, agg_layer ? net::Ipv4Addr(10, 1, 255, 1)
                                    : net::Ipv4Addr(10, 0, 255, 1)));
    c.root = root;

    // Wire @p child's uplink port to @p parent. Parents must be able
    // to address the child switch itself (results & control), not just
    // the hosts behind it. Only root-side links go in primary_links.
    const auto attach = [&](core::ProgrammableSwitch *child,
                            std::size_t child_port,
                            core::ProgrammableSwitch *parent,
                            std::size_t parent_port,
                            const net::LinkConfig &link) {
        net::Link *l = c.topo->connectSwitches(child, child_port, parent,
                                               parent_port, link);
        if (parent == root)
            c.primary_links.push_back(l);
        parent->addRoute(child->ip(), parent_port);
        parent->adminJoin(child->ip(), kSwitchPort,
                          core::MemberType::kSwitch);
    };

    // AGG layer first: wiring the AGG uplinks before any ToR/host lets
    // the subtree-route propagation in connectHost/connectSwitches
    // reach the core.
    for (std::size_t p = 0; agg_layer && p < fanout; ++p) {
        const std::size_t pod_racks =
            std::min(cfg.racks_per_pod, racks - p * cfg.racks_per_pod);
        auto *agg = c.topo->addSwitch<core::ProgrammableSwitch>(
            "agg" + std::to_string(p), pod_racks + 1 + ha_ports,
            switchConfig(cfg,
                         net::Ipv4Addr(10, 1, static_cast<std::uint8_t>(p),
                                       1),
                         root));
        attach(agg, pod_racks, root, p, root_link);
        c.aggs.push_back(agg);
    }

    std::size_t next_worker = 0;
    for (std::size_t r = 0; r < racks; ++r) {
        const std::size_t pod = agg_layer ? r / cfg.racks_per_pod : 0;
        core::ProgrammableSwitch *parent = agg_layer ? c.aggs[pod] : root;
        const std::size_t parent_port =
            agg_layer ? r % cfg.racks_per_pod : r;
        // Ports: per_rack workers + uplink + local PS shards (shard k
        // lands on rack k % racks; at least one spare slot, matching
        // the pre-sharded layout) + one pre-wired failover uplink when
        // the ToR is a root child and an HA backup exists.
        const std::size_t rack_ps =
            shards / racks + (r < shards % racks ? 1 : 0);
        auto *tor = c.topo->addSwitch<core::ProgrammableSwitch>(
            "tor" + std::to_string(r),
            cfg.per_rack + 1 + std::max<std::size_t>(1, rack_ps) +
                (parent == root ? ha_ports : 0),
            switchConfig(cfg,
                         net::Ipv4Addr(10, 0, static_cast<std::uint8_t>(r),
                                       1),
                         parent));
        c.leaves.push_back(tor);

        std::size_t used = 0;
        for (; used < cfg.per_rack && next_worker < cfg.num_workers;
             ++used, ++next_worker) {
            auto *h = c.topo->addHost(
                "worker" + std::to_string(next_worker),
                net::Ipv4Addr(10, 0, static_cast<std::uint8_t>(r),
                              static_cast<std::uint8_t>(2 + used)));
            c.topo->connectHost(h, tor, used, cfg.edge_link);
            tor->adminJoin(h->ip(), kWorkerPort, core::MemberType::kWorker);
            c.workers.push_back(h);
        }
        // Uplink on the port after the last worker slot.
        attach(tor, cfg.per_rack, parent, parent_port, cfg.uplink);
        if (agg_layer)
            root->addRoute(tor->ip(), pod);
    }

    for (std::size_t k = 0; k < shards; ++k) {
        const std::size_t rack = k % racks;
        net::Host *h = c.topo->addHost(
            shards == 1 ? "ps" : "ps" + std::to_string(k),
            net::Ipv4Addr(10, 0, 254, static_cast<std::uint8_t>(2 + k)));
        c.topo->connectHost(h, c.leaves[rack],
                            cfg.per_rack + 1 + k / racks, cfg.edge_link);
        c.ps_shards.push_back(h); // not aggregation members
    }
    if (!c.ps_shards.empty())
        c.ps = c.ps_shards.front();

    if (cfg.ha.with_backup) {
        // A second root-level switch, pre-wired to every root child.
        // Wired after the PS loop so subtreeHosts() already includes
        // the PS shards.
        auto *bk = c.topo->addSwitch<core::ProgrammableSwitch>(
            "backup", fanout + 1,
            switchConfig(cfg, agg_layer ? net::Ipv4Addr(10, 1, 254, 1)
                                        : net::Ipv4Addr(10, 0, 255, 2)));
        const auto &children = agg_layer ? c.aggs : c.leaves;
        for (std::size_t i = 0; i < fanout; ++i) {
            core::ProgrammableSwitch *child = children[i];
            const std::size_t fail_port = child->numPorts() - 1;
            // Failover links must stay up through a primary crash, so
            // they are NOT recorded in primary_links.
            c.topo->connectPeers(child, fail_port, bk, i, root_link);
            bk->addRoute(child->ip(), i);
            for (net::Host *h : c.topo->subtreeHosts(child))
                bk->addRoute(h->ip(), i);
            bk->adminJoin(child->ip(), kSwitchPort,
                          core::MemberType::kSwitch);
            child->setFailoverUplink(bk->ip(), fail_port);
        }
        c.primary_links.push_back(
            c.topo->connectPeers(root, fanout, bk, fanout, root_link));
        root->addRoute(bk->ip(), fanout);
        root->enableHaPrimary(bk->ip(), kSwitchPort,
                              {cfg.ha.repl_mode, cfg.ha.staleness_window});
        bk->enableHaBackup(cfg.ha.heartbeat_period, cfg.ha.miss_threshold);
        c.backup = bk;
    }
    return c;
}

} // namespace

Cluster
buildStarCluster(sim::Simulation &s, const ClusterConfig &cfg)
{
    if (!cfg.worker_jobs.empty() &&
        cfg.worker_jobs.size() != cfg.num_workers)
        throw std::invalid_argument(
            "buildStarCluster: worker_jobs size mismatch");
    if (cfg.ha.with_backup && cfg.accel.num_slots != 0)
        throw std::invalid_argument(
            "buildStarCluster: HA backups require the unbounded "
            "dedicated-switch slot model (accel.num_slots == 0)");
    Cluster c;
    c.topo = std::make_unique<net::Topology>(s);
    const std::size_t shards = cfg.with_ps ? std::max<std::size_t>(
                                                 cfg.ps_shards, 1)
                                           : 0;
    const std::size_t extra = shards;
    const std::size_t ha_ports = cfg.ha.with_backup ? 1 : 0;
    const std::size_t host_ports = cfg.ha.with_backup ? 2 : 1;

    const core::ProgrammableSwitchConfig sw_cfg =
        switchConfig(cfg, net::Ipv4Addr(10, 0, 0, 1));
    auto *sw = c.topo->addSwitch<core::ProgrammableSwitch>(
        "switch0", cfg.num_workers + extra + ha_ports, sw_cfg);
    c.leaves.push_back(sw);
    c.root = sw;

    for (std::size_t i = 0; i < cfg.num_workers; ++i) {
        auto *h = c.topo->addHost("worker" + std::to_string(i),
                                  net::Ipv4Addr(10, 0, 0,
                                                static_cast<std::uint8_t>(
                                                    2 + i)),
                                  host_ports);
        c.primary_links.push_back(
            c.topo->connectHost(h, sw, i, cfg.edge_link));
        sw->adminJoin(h->ip(), kWorkerPort, core::MemberType::kWorker,
                      cfg.worker_jobs.empty() ? std::uint8_t{0}
                                              : cfg.worker_jobs[i]);
        c.workers.push_back(h);
    }
    for (std::size_t k = 0; k < shards; ++k) {
        net::Host *h = c.topo->addHost(
            shards == 1 ? "ps" : "ps" + std::to_string(k),
            net::Ipv4Addr(10, 0, 254, static_cast<std::uint8_t>(2 + k)),
            host_ports);
        c.primary_links.push_back(
            c.topo->connectHost(h, sw, cfg.num_workers + k, cfg.edge_link));
        c.ps_shards.push_back(h); // not aggregation members
    }
    if (!c.ps_shards.empty())
        c.ps = c.ps_shards.front();

    if (cfg.ha.with_backup) {
        // Shadow switch: every host dual-homes its port 1 to the
        // backup; on kFailover the hosts flip their active uplink.
        core::ProgrammableSwitchConfig bk_cfg = sw_cfg;
        bk_cfg.ip = net::Ipv4Addr(10, 0, 253, 1);
        auto *bk = c.topo->addSwitch<core::ProgrammableSwitch>(
            "backup", cfg.num_workers + shards + 1, bk_cfg);
        for (std::size_t i = 0; i < cfg.num_workers; ++i) {
            c.topo->connectHostPort(c.workers[i], 1, bk, i, cfg.edge_link);
            bk->adminJoin(c.workers[i]->ip(), kWorkerPort,
                          core::MemberType::kWorker,
                          cfg.worker_jobs.empty() ? std::uint8_t{0}
                                                  : cfg.worker_jobs[i]);
        }
        for (std::size_t k = 0; k < shards; ++k)
            c.topo->connectHostPort(c.ps_shards[k], 1, bk,
                                    cfg.num_workers + k, cfg.edge_link);
        const std::size_t peer_sw = cfg.num_workers + extra;
        const std::size_t peer_bk = cfg.num_workers + shards;
        c.primary_links.push_back(
            c.topo->connectPeers(sw, peer_sw, bk, peer_bk, cfg.edge_link));
        sw->addRoute(bk->ip(), peer_sw);
        sw->enableHaPrimary(bk->ip(), kSwitchPort,
                            {cfg.ha.repl_mode, cfg.ha.staleness_window});
        bk->enableHaBackup(cfg.ha.heartbeat_period, cfg.ha.miss_threshold);
        c.backup = bk;
    }
    return c;
}

Cluster
buildTreeCluster(sim::Simulation &s, const ClusterConfig &cfg)
{
    return buildHierarchy(s, cfg, /*agg_layer=*/false);
}

Cluster
buildFatTreeCluster(sim::Simulation &s, const ClusterConfig &cfg)
{
    return buildHierarchy(s, cfg, /*agg_layer=*/true);
}

} // namespace isw::dist
