/**
 * @file
 * Reproduces paper Figure 15: scalability of PPO and DDPG training —
 * sync (PS/AR/iSW) and async (PS/iSW) — on the rack-scale topology
 * (racks of `per_rack` workers under a core switch, as in the paper's
 * emulation setup, §5.3). The default geometry (racks of 3, worker
 * counts 4/6/9/12) is the paper's; `--per-rack N` rescales the rack
 * and the swept worker counts (per_rack+1, 2·per_rack, 3·per_rack,
 * 4·per_rack) together.
 *
 * Speedup(N) = end-to-end(base workers) / end-to-end(N workers), with
 * a fixed total sample budget: N workers collect N trajectories per
 * iteration, so iterations(N) = iterations(base) x base/N, and
 * per-iteration times come from paper-wire timing runs on the tree
 * topology. The "Ideal" column is N/base.
 *
 * A final multi-rack panel takes one point beyond the two-layer tree:
 * 8 racks x 8 workers (2 pods of 4 racks) on the ToR-AGG-Core
 * fat-tree, comparing per-iteration time against the two-layer tree
 * at the same worker count, then times the async strategies on that
 * fat-tree. `--fat-racks/--fat-per-rack/--fat-pod` reshape it.
 */

#include <iostream>
#include <map>

#include "common.hh"

using namespace isw;

namespace {

std::array<std::size_t, 4>
workerCounts(std::size_t per_rack)
{
    return {per_rack + 1, 2 * per_rack, 3 * per_rack, 4 * per_rack};
}

void
panel(rl::Algo algo, const std::vector<dist::StrategyKind> &strategies,
      const char *title, std::size_t per_rack)
{
    harness::banner(std::string(rl::algoName(algo)) + " — " + title);
    std::vector<std::string> headers{"Workers"};
    for (auto k : strategies)
        headers.push_back(dist::strategyName(k));
    headers.push_back("Ideal");
    harness::Table t(headers);

    const auto counts = workerCounts(per_rack);
    const double base_n = static_cast<double>(counts[0]);
    std::map<dist::StrategyKind, double> base;
    harness::FabricSpec tree;
    tree.tree = true;
    tree.per_rack = per_rack;
    const auto per_iter = [&](dist::StrategyKind k, std::size_t n) {
        return bench::runner()
            .run(harness::timingSpec(algo, k, n, tree))
            .perIterationMs();
    };
    for (auto k : strategies)
        base[k] = per_iter(k, counts[0]);

    for (std::size_t n : counts) {
        std::vector<std::string> row{std::to_string(n)};
        for (auto k : strategies) {
            const double periter = per_iter(k, n);
            // Fixed total gradient-sample budget G. One Async PS
            // update consumes one gradient (updates = G); every other
            // strategy's update consumes N gradients (updates = G/N).
            const double per_update_samples =
                k == dist::StrategyKind::kAsyncPs
                    ? 1.0
                    : static_cast<double>(n);
            const double t_n = periter / per_update_samples;
            const double t_b =
                base[k] /
                (k == dist::StrategyKind::kAsyncPs ? 1.0 : base_n);
            row.push_back(bench::speedupStr(t_b / t_n));
        }
        row.push_back(
            bench::speedupStr(static_cast<double>(n) / base_n));
        t.row(std::move(row));
    }
    t.print();
}

void
fatTreePanel(std::size_t racks, std::size_t per_rack, std::size_t pod)
{
    const std::size_t workers = racks * per_rack;
    harness::banner("Multi-rack point — " + std::to_string(racks) +
                    " racks x " + std::to_string(per_rack) +
                    " workers (fat-tree, pods of " + std::to_string(pod) +
                    ")");
    harness::Table t({"Algo", "Fabric", "Workers", "ms/iter"});
    harness::FabricSpec tree;
    tree.tree = true;
    tree.per_rack = per_rack;
    harness::FabricSpec fat;
    fat.fat_tree = true;
    fat.per_rack = per_rack;
    fat.racks_per_pod = pod;
    const auto ms_for = [&](const harness::FabricSpec &fabric,
                            rl::Algo algo) {
        return bench::runner()
            .run(harness::timingSpec(
                algo, dist::StrategyKind::kSyncIswitch, workers, fabric))
            .perIterationMs();
    };
    for (auto algo : {rl::Algo::kPpo, rl::Algo::kDdpg}) {
        t.row({rl::algoName(algo), "tree", std::to_string(workers),
               harness::fmt(ms_for(tree, algo), 3)});
        t.row({rl::algoName(algo), "fat-tree", std::to_string(workers),
               harness::fmt(ms_for(fat, algo), 3)});
    }
    t.print();

    // Async DQN on the same fat-tree. ms/iter is simulated; events/s
    // is the simulator's wall-clock throughput.
    harness::banner("Async on the fat-tree");
    harness::Table s({"Strategy", "ms/iter", "sim events/s"});
    for (auto k : {dist::StrategyKind::kAsyncPs,
                   dist::StrategyKind::kAsyncIswitch}) {
        const dist::RunResult &r = bench::runner().run(
            harness::timingSpec(rl::Algo::kDqn, k, workers, fat));
        const auto it = r.perf.find("events_per_sec");
        s.row({dist::strategyName(k), harness::fmt(r.perIterationMs(), 3),
               harness::fmt(it == r.perf.end() ? 0.0 : it->second, 0)});
    }
    s.print();
}

} // namespace

int
main(int argc, char **argv)
{
    harness::Cli cli = bench::initBench(
        argc, argv, {}, {"per-rack", "fat-racks", "fat-per-rack", "fat-pod"});
    const auto per_rack =
        static_cast<std::size_t>(cli.getInt("per-rack", 3));
    const auto fat_racks =
        static_cast<std::size_t>(cli.getInt("fat-racks", 8));
    const auto fat_per_rack =
        static_cast<std::size_t>(cli.getInt("fat-per-rack", 8));
    const auto fat_pod = static_cast<std::size_t>(cli.getInt("fat-pod", 4));
    bench::printHeader("Figure 15 — rack-scale scalability (racks of " +
                       std::to_string(per_rack) + ")");

    const std::vector<dist::StrategyKind> sync{
        dist::StrategyKind::kSyncPs, dist::StrategyKind::kSyncAllReduce,
        dist::StrategyKind::kSyncIswitch};
    const std::vector<dist::StrategyKind> async_k{
        dist::StrategyKind::kAsyncPs, dist::StrategyKind::kAsyncIswitch};

    // The full sweep: 5 strategies x 4 worker counts x 2 algorithms,
    // all independent tree-topology timing runs, plus the multi-rack
    // fat-tree points.
    std::vector<harness::ExperimentSpec> specs;
    harness::FabricSpec tree;
    tree.tree = true;
    tree.per_rack = per_rack;
    for (auto algo : {rl::Algo::kPpo, rl::Algo::kDdpg}) {
        for (const auto &group : {sync, async_k})
            for (auto k : group)
                for (std::size_t n : workerCounts(per_rack))
                    specs.push_back(harness::timingSpec(algo, k, n, tree));
    }
    bench::prefetch(specs);

    panel(rl::Algo::kPpo, sync, "synchronous (Fig. 15a)", per_rack);
    panel(rl::Algo::kPpo, async_k, "asynchronous (Fig. 15b)", per_rack);
    panel(rl::Algo::kDdpg, sync, "synchronous (Fig. 15c)", per_rack);
    panel(rl::Algo::kDdpg, async_k, "asynchronous (Fig. 15d)", per_rack);

    fatTreePanel(fat_racks, fat_per_rack, fat_pod);

    std::cout << "\nExpected shape (paper): AR scales worst (hop count"
              << "\nlinear in N), PS second (central bottleneck), iSwitch"
              << "\nbest via hierarchical in-switch aggregation; async"
              << "\niSwitch approaches linear speedup.\n";
    bench::writeReport("fig15_scalability");
    return 0;
}
