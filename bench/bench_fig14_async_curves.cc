/**
 * @file
 * Reproduces paper Figure 14: asynchronous DQN training curves for
 * Async PS vs Async iSwitch (both with staleness bound S = 3). The
 * two strategies genuinely diverge in iteration space — iSwitch's
 * fresher gradients converge in fewer updates — and in time space via
 * their different update intervals.
 */

#include <iostream>

#include "common.hh"

using namespace isw;

namespace {

constexpr std::size_t kCurveEvery = 200;

/** Multi-rack worker count for the tree timing rows (4 racks of 3
 *  under the default tree geometry). */
constexpr std::size_t kTreeWorkers = 12;

harness::ExperimentSpec
curveSpec(dist::StrategyKind k)
{
    harness::ExperimentSpec spec =
        harness::learningSpec(rl::Algo::kDqn, k);
    spec.name += "/curve200";
    spec.tags.push_back("fig14-curve");
    spec.config.curve_every = kCurveEvery;
    return spec;
}

harness::ExperimentSpec
treeTimingSpec(dist::StrategyKind k)
{
    harness::FabricSpec fabric;
    fabric.tree = true;
    return harness::timingSpec(rl::Algo::kDqn, k, kTreeWorkers, fabric);
}

/** The fig14 timing runs again, on a partitioned multi-rack tree. */
void
treeAsyncTable()
{
    harness::banner("Async timing on a tree (" +
                    std::to_string(kTreeWorkers) + " workers)");
    harness::Table t({"Strategy", "ms/iter", "sim events/s"});
    for (auto k : {dist::StrategyKind::kAsyncPs,
                   dist::StrategyKind::kAsyncIswitch}) {
        const dist::RunResult &r = bench::runner().run(treeTimingSpec(k));
        const auto it = r.perf.find("events_per_sec");
        t.row({dist::strategyName(k), harness::fmt(r.perIterationMs(), 3),
               harness::fmt(it == r.perf.end() ? 0.0 : it->second, 0)});
    }
    t.print();
}

void
curveTable(const char *title, const dist::RunResult &res, double periter_ms)
{
    harness::banner(title);
    harness::Table t({"iteration", "reward", "time (s)"});
    std::size_t iter = 0;
    for (const auto &p : res.reward_curve.points()) {
        iter += kCurveEvery;
        t.row({std::to_string(iter), harness::fmt(p.v, 2),
               harness::fmt(iter * periter_ms / 1000.0, 1)});
    }
    t.print();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::initBench(argc, argv);
    bench::printHeader("Figure 14 — async DQN training curves (reward vs time)");

    bench::prefetch(
        {curveSpec(dist::StrategyKind::kAsyncPs),
         curveSpec(dist::StrategyKind::kAsyncIswitch),
         harness::timingSpec(rl::Algo::kDqn, dist::StrategyKind::kAsyncPs),
         harness::timingSpec(rl::Algo::kDqn,
                             dist::StrategyKind::kAsyncIswitch),
         treeTimingSpec(dist::StrategyKind::kAsyncPs),
         treeTimingSpec(dist::StrategyKind::kAsyncIswitch)});

    const dist::RunResult &ps =
        bench::runner().run(curveSpec(dist::StrategyKind::kAsyncPs));
    const dist::RunResult &isw =
        bench::runner().run(curveSpec(dist::StrategyKind::kAsyncIswitch));
    const double ps_ms =
        bench::perIterMs(rl::Algo::kDqn, dist::StrategyKind::kAsyncPs);
    const double isw_ms =
        bench::perIterMs(rl::Algo::kDqn, dist::StrategyKind::kAsyncIswitch);

    curveTable("Async PS curve", ps, ps_ms);
    curveTable("Async iSW curve", isw, isw_ms);
    treeAsyncTable();

    std::cout << "\nAsync PS: " << ps.iterations << " updates to reward "
              << harness::fmt(ps.final_avg_reward, 2) << "; Async iSW: "
              << isw.iterations << " updates to reward "
              << harness::fmt(isw.final_avg_reward, 2)
              << "\n(paper: iSwitch converges in 44.4%-77.8% fewer"
              << " iterations thanks to fresher gradients).\n";
    bench::writeReport("fig14_async_curves");
    return 0;
}
