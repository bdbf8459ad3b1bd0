/** @file Golden-report regression tests: the simulated reports of a
 *  few small partitioned-fabric runs are committed under
 *  tests/golden/ and must not drift by a single byte. The lossy cases
 *  pin the loss-recovery path (timeout, free-ack probe of the far
 *  end's assembler, resend) of sync iSwitch, sync PS, AllReduce and
 *  Async PS.
 *
 *  Each case serializes its RunResult with harness::resultToJson
 *  (every deterministic field: iterations, simulated timing, rewards,
 *  breakdown, extras, curve; never the wall-clock perf block) and
 *  compares the text with tests/golden/<name>.json. On a mismatch the
 *  actual report is written to <name>.actual.json in the working
 *  directory so it can be diffed against the committed file. A change
 *  that is meant to move simulated numbers replaces the golden file
 *  with that output in the same commit. */

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "dist/strategy.hh"
#include "harness/runner.hh"

namespace isw::dist {
namespace {

/** Small PPO run on a tree of 3-worker racks (actual model size). */
JobConfig
treeConfig(StrategyKind k, std::size_t workers, std::uint64_t iters)
{
    JobConfig cfg = JobConfig::forBenchmark(rl::Algo::kPpo, k, workers);
    cfg.wire_model_bytes = 0;
    cfg.use_tree = true;
    cfg.cluster.per_rack = 3;
    cfg.stop.max_iterations = iters;
    cfg.curve_every = 3;
    cfg.seed = 11;
    return cfg;
}

void
expectGolden(const std::string &name, const JobConfig &cfg)
{
    const std::string actual =
        harness::resultToJson(runJob(cfg)).dump(2) + "\n";
    const std::string path = std::string(ISW_GOLDEN_DIR) + "/" + name +
                             ".json";
    std::ifstream in(path);
    std::ostringstream expected;
    expected << in.rdbuf();
    if (in && expected.str() == actual)
        return;
    std::ofstream(name + ".actual.json") << actual;
    ADD_FAILURE() << (in ? "report drifted from " : "missing golden file ")
                  << path << "; actual report written to " << name
                  << ".actual.json";
}

TEST(GoldenReport, SyncIswitchTree)
{
    expectGolden("sync_isw_tree", treeConfig(StrategyKind::kSyncIswitch,
                                             6, 8));
}

TEST(GoldenReport, SyncIswitchFatTree)
{
    JobConfig cfg = treeConfig(StrategyKind::kSyncIswitch, 8, 6);
    cfg.use_tree = false;
    cfg.use_fat_tree = true;
    cfg.cluster.per_rack = 2;
    cfg.cluster.racks_per_pod = 2; // 4 racks, 2 pods
    expectGolden("sync_isw_fat_tree", cfg);
}

TEST(GoldenReport, SyncPsTree)
{
    expectGolden("sync_ps_tree", treeConfig(StrategyKind::kSyncPs, 4, 4));
}

TEST(GoldenReport, SyncShardedPsTree)
{
    JobConfig cfg = treeConfig(StrategyKind::kSyncShardedPs, 6, 6);
    cfg.ps_shards = 3; // shards 0 and 2 in rack 0, shard 1 in rack 1
    cfg.cluster.edge_link.loss_prob = 0.01;
    expectGolden("sync_sharded_ps_tree", cfg);
}

TEST(GoldenReport, AsyncPsTree)
{
    expectGolden("async_ps_tree", treeConfig(StrategyKind::kAsyncPs, 4, 6));
}

TEST(GoldenReport, AsyncIswitchTree)
{
    expectGolden("async_isw_tree",
                 treeConfig(StrategyKind::kAsyncIswitch, 6, 8));
}

TEST(GoldenReport, LossySyncIswitchTree)
{
    JobConfig cfg = treeConfig(StrategyKind::kSyncIswitch, 6, 6);
    cfg.cluster.edge_link.loss_prob = 0.01;
    expectGolden("lossy_sync_isw_tree", cfg);
}

TEST(GoldenReport, LossyAllReduceTree)
{
    JobConfig cfg = treeConfig(StrategyKind::kSyncAllReduce, 6, 6);
    cfg.cluster.edge_link.loss_prob = 0.01;
    expectGolden("lossy_allreduce_tree", cfg);
}

TEST(GoldenReport, LossyAsyncPsTree)
{
    JobConfig cfg = treeConfig(StrategyKind::kAsyncPs, 4, 6);
    cfg.cluster.edge_link.loss_prob = 0.01;
    expectGolden("lossy_async_ps_tree", cfg);
}

} // namespace
} // namespace isw::dist
