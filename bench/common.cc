#include "common.hh"

#include <cstdlib>
#include <iostream>
#include <memory>
#include <stdexcept>

namespace isw::bench {

namespace {

std::size_t g_jobs = 0; ///< --jobs override captured by initBench()
std::unique_ptr<harness::Runner> g_runner;

} // namespace

harness::Cli
initBench(int argc, const char *const *argv,
          std::vector<std::string> extra_known,
          const std::vector<std::string> &count_flags)
{
    std::vector<std::string> known = std::move(extra_known);
    known.insert(known.end(), count_flags.begin(), count_flags.end());
    known.push_back("jobs");
    try {
        harness::Cli cli(argc, argv);
        cli.requireKnown(known);
        const std::int64_t jobs = cli.getInt("jobs", 0);
        if (jobs < 0)
            throw std::invalid_argument("--jobs must be >= 0");
        for (const std::string &name : count_flags)
            if (cli.getInt(name, 1) < 1)
                throw std::invalid_argument("--" + name + " must be >= 1");
        g_jobs = static_cast<std::size_t>(jobs);
        return cli;
    } catch (const std::invalid_argument &e) {
        std::cerr << (argc > 0 ? argv[0] : "bench") << ": " << e.what()
                  << "\nknown flags:";
        for (const std::string &k : known)
            std::cerr << " --" << k;
        std::cerr << "\n";
        std::exit(2);
    }
}

harness::Runner &
runner()
{
    if (!g_runner) {
        harness::RunnerOptions opts;
        opts.jobs = g_jobs;
        g_runner = std::make_unique<harness::Runner>(opts);
    }
    return *g_runner;
}

void
prefetch(const std::vector<harness::ExperimentSpec> &specs)
{
    runner().runAll(specs);
}

double
perIterMs(rl::Algo algo, dist::StrategyKind k, std::size_t workers,
          bool tree)
{
    return timingResult(algo, k, workers, tree).perIterationMs();
}

const dist::RunResult &
timingResult(rl::Algo algo, dist::StrategyKind k, std::size_t workers,
             bool tree)
{
    return runner().run(harness::timingSpec(algo, k, workers, tree));
}

void
writeReport(const std::string &name)
{
    runner().writeReport(name);
}

void
printHeader(const std::string &what)
{
    const auto opts = harness::benchOptions();
    std::cout << "#\n# iswitch-sim reproduction: " << what << "\n"
              << "# scale: " << (opts.full ? "full" : "quick")
              << " (set ISW_BENCH_SCALE=full for paper-scale runs)\n"
              << "# jobs: " << runner().jobs()
              << " (set --jobs N or ISW_BENCH_JOBS)\n#\n";
}

std::string
speedupStr(double s)
{
    return harness::fmt(s, 2) + "x";
}

} // namespace isw::bench
