/**
 * @file
 * Reproduces paper Figure 12: per-iteration time of the synchronous
 * strategies (PS / AR / iSW) with component breakdown, normalized to
 * the PS baseline of each benchmark.
 */

#include <iostream>

#include "common.hh"

using namespace isw;

int
main(int argc, char **argv)
{
    const harness::Cli cli =
        bench::initBench(argc, argv, {"csv"}, {"workers"});
    const auto workers =
        static_cast<std::size_t>(cli.getInt("workers", 4));
    const bool csv = cli.has("csv");

    bench::printHeader(
        "Figure 12 — synchronous per-iteration time, normalized to PS");

    std::vector<harness::ExperimentSpec> specs;
    for (auto algo : bench::kAlgos)
        for (auto k : bench::kSyncStrategies)
            specs.push_back(harness::timingSpec(algo, k, workers));
    bench::prefetch(specs);

    for (auto algo : bench::kAlgos) {
        harness::banner(std::string(rl::algoName(algo)));
        const double ps_total =
            bench::timingResult(algo, dist::StrategyKind::kSyncPs, workers)
                .breakdown.totalMeanMs();
        harness::Table t({"Strategy", "Per-iter (ms)", "Normalized",
                          "LGC (ms)", "Grad Agg (ms)", "Weight Upd (ms)",
                          "Paper per-iter (ms)"});
        for (auto k : bench::kSyncStrategies) {
            const auto &res = bench::timingResult(algo, k, workers);
            double lgc = 0.0;
            for (std::size_t c = 0; c < dist::kNumComponents; ++c) {
                const auto comp = static_cast<dist::IterComponent>(c);
                if (dist::isLgcComponent(comp) ||
                    comp == dist::IterComponent::kOthers)
                    lgc += res.breakdown.meanMs(comp);
            }
            t.row({dist::strategyName(k),
                   harness::fmt(res.breakdown.totalMeanMs(), 2),
                   harness::fmt(res.breakdown.totalMeanMs() / ps_total, 2),
                   harness::fmt(lgc, 2),
                   harness::fmt(res.breakdown.meanMs(
                                    dist::IterComponent::kGradAggregation),
                                2),
                   harness::fmt(res.breakdown.meanMs(
                                    dist::IterComponent::kWeightUpdate),
                                2),
                   harness::fmt(harness::paperSyncPerIterMs(algo, k), 2)});
        }
        if (csv)
            t.printCsv(std::cout);
        else
            t.print();
    }

    harness::banner("Aggregation-time reduction vs PS (paper: 81.6%-85.8%)");
    harness::Table t({"Algorithm", "iSW vs PS", "iSW vs AR"});
    for (auto algo : bench::kAlgos) {
        const double ps =
            bench::timingResult(algo, dist::StrategyKind::kSyncPs, workers)
                .breakdown.meanMs(dist::IterComponent::kGradAggregation);
        const double ar =
            bench::timingResult(algo, dist::StrategyKind::kSyncAllReduce,
                                workers)
                .breakdown.meanMs(dist::IterComponent::kGradAggregation);
        const double isw =
            bench::timingResult(algo, dist::StrategyKind::kSyncIswitch,
                                workers)
                .breakdown.meanMs(dist::IterComponent::kGradAggregation);
        t.row({rl::algoName(algo),
               harness::fmt((1.0 - isw / ps) * 100.0, 1) + "%",
               harness::fmt((1.0 - isw / ar) * 100.0, 1) + "%"});
    }
    t.print();
    bench::writeReport("fig12_periteration");
    return 0;
}
