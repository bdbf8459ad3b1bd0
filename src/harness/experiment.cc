#include "harness/experiment.hh"

#include <cstdlib>
#include <cstring>

namespace isw::harness {

BenchOptions
benchOptions()
{
    BenchOptions opts;
    const char *scale = std::getenv("ISW_BENCH_SCALE");
    if (scale != nullptr && std::strcmp(scale, "full") == 0) {
        opts.full = true;
        opts.timing_iterations = 120;
        opts.large_wire_scale = 1.0;
    }
    return opts;
}

double
targetRewardFor(rl::Algo algo)
{
    // Calibrated against single-node training on the local envs: the
    // level a competent policy reaches, clearly above random play.
    switch (algo) {
      case rl::Algo::kDqn: return 2.0;  // PongLite, win by >= 2 points
      case rl::Algo::kA2c: return 7.0;  // QbertLite, most cells colored
      case rl::Algo::kPpo: return 30.0; // Hopper1D, sustained hopping
      case rl::Algo::kDdpg: return 2.0; // CheetahLite, sustained speed
    }
    return 0.0;
}

std::uint64_t
learnCapFor(rl::Algo algo, bool async, bool full)
{
    std::uint64_t cap = 0;
    switch (algo) {
      case rl::Algo::kDqn: cap = 5000; break;
      case rl::Algo::kA2c: cap = 3000; break;
      case rl::Algo::kPpo: cap = 1200; break;
      case rl::Algo::kDdpg: cap = 4000; break;
    }
    if (async)
        cap *= 4; // async counts per-gradient updates
    if (full)
        cap *= 3;
    return cap;
}

dist::JobConfig
timingJob(rl::Algo algo, dist::StrategyKind k, std::size_t workers)
{
    const BenchOptions opts = benchOptions();
    dist::JobConfig cfg = dist::JobConfig::forBenchmark(algo, k, workers);
    cfg.stop.max_iterations = opts.timing_iterations;
    cfg.curve_every = opts.timing_iterations; // curves unused here
    return cfg;
}

dist::JobConfig
learningJob(rl::Algo algo, dist::StrategyKind k, std::size_t workers)
{
    const BenchOptions opts = benchOptions();
    dist::JobConfig cfg = dist::JobConfig::forBenchmark(algo, k, workers);
    if (cfg.wire_model_bytes >= (1ULL << 20)) {
        cfg.wire_model_bytes = static_cast<std::uint64_t>(
            static_cast<double>(cfg.wire_model_bytes) *
            opts.large_wire_scale);
    }
    cfg.stop.target_reward = targetRewardFor(algo);
    cfg.stop.max_iterations =
        learnCapFor(algo, dist::isAsyncStrategy(k), opts.full);
    cfg.stop.min_episodes = 20;
    cfg.curve_every = 5;
    return cfg;
}

std::string
specName(const std::string &flavor, rl::Algo algo, dist::StrategyKind k,
         std::size_t workers, bool tree)
{
    std::string strategy = dist::strategyName(k);
    for (char &c : strategy)
        if (c == ' ')
            c = '-';
    std::string name = flavor + "/" + rl::algoName(algo) + "/" + strategy +
                       "/w" + std::to_string(workers);
    if (tree)
        name += "/tree";
    return name;
}

ExperimentSpec
timingSpec(rl::Algo algo, dist::StrategyKind k, std::size_t workers,
           bool tree)
{
    ExperimentSpec spec;
    spec.name = specName("timing", algo, k, workers, tree);
    spec.config = timingJob(algo, k, workers);
    spec.config.use_tree = tree;
    spec.tags = {"timing"};
    return spec;
}

ExperimentSpec
timingSpec(rl::Algo algo, dist::StrategyKind k, std::size_t workers,
           const FabricSpec &fabric)
{
    ExperimentSpec spec = timingSpec(algo, k, workers, fabric.tree);
    if (fabric.per_rack > 0)
        spec.config.cluster.per_rack = fabric.per_rack;
    if (fabric.racks_per_pod > 0)
        spec.config.cluster.racks_per_pod = fabric.racks_per_pod;
    if (fabric.fat_tree) {
        spec.config.use_tree = false;
        spec.config.use_fat_tree = true;
        spec.name += "/fat";
        if (fabric.per_rack > 0)
            spec.name += "-r" + std::to_string(fabric.per_rack);
        if (fabric.racks_per_pod > 0)
            spec.name += "-p" + std::to_string(fabric.racks_per_pod);
    }
    return spec;
}

ExperimentSpec
learningSpec(rl::Algo algo, dist::StrategyKind k, std::size_t workers)
{
    ExperimentSpec spec;
    spec.name = specName("learn", algo, k, workers);
    spec.config = learningJob(algo, k, workers);
    spec.tags = {"learning"};
    return spec;
}

} // namespace isw::harness
