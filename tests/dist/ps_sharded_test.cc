/** @file Tests for the sync parameter-server job with K shards. */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "dist/strategy.hh"
#include "harness/runner.hh"

namespace isw::dist {
namespace {

JobConfig
shardedConfig(std::size_t shards, std::uint64_t iters,
              std::uint64_t wire = 0)
{
    JobConfig cfg = JobConfig::forBenchmark(
        rl::Algo::kA2c, StrategyKind::kSyncShardedPs, 4);
    cfg.wire_model_bytes = wire;
    cfg.ps_shards = shards;
    cfg.stop.max_iterations = iters;
    return cfg;
}

TEST(ShardedPs, RunsWithVariousShardCounts)
{
    for (std::size_t shards : {1u, 2u, 4u}) {
        RunResult res = runJob(shardedConfig(shards, 6));
        EXPECT_GE(res.iterations, 6u) << shards << " shards";
    }
}

TEST(ShardedPs, ClusterHasShardHosts)
{
    JobConfig cfg = shardedConfig(3, 1);
    auto job = makeJob(cfg);
    EXPECT_EQ(job->cluster().ps_shards.size(), 3u);
    EXPECT_EQ(job->cluster().ps, job->cluster().ps_shards[0]);
    job->run();
}

TEST(ShardedPs, OneRoundWeightsMatchPlainPs)
{
    auto one_round = [](StrategyKind k, std::size_t shards) {
        JobConfig cfg = JobConfig::forBenchmark(rl::Algo::kA2c, k, 4);
        cfg.wire_model_bytes = 0;
        cfg.ps_shards = shards;
        cfg.stop.max_iterations = 1;
        auto job = makeJob(cfg);
        job->run();
        ml::Vec w;
        job->workerAgent(0).getWeights(w);
        return w;
    };
    const ml::Vec ps = one_round(StrategyKind::kSyncPs, 1);
    const ml::Vec sharded = one_round(StrategyKind::kSyncShardedPs, 4);
    ASSERT_EQ(ps.size(), sharded.size());
    for (std::size_t i = 0; i < ps.size(); ++i)
        ASSERT_NEAR(ps[i], sharded[i], 1e-5f) << "index " << i;
}

TEST(ShardedPs, ShardingRelievesTheCentralLink)
{
    // Big model: four shard links drain the aggregate roughly in
    // parallel where the single PS link serializes it.
    const std::uint64_t wire = 4 * 1024 * 1024;
    JobConfig plain = JobConfig::forBenchmark(
        rl::Algo::kDqn, StrategyKind::kSyncPs, 4);
    plain.wire_model_bytes = wire;
    plain.stop.max_iterations = 6;
    JobConfig sharded = JobConfig::forBenchmark(
        rl::Algo::kDqn, StrategyKind::kSyncShardedPs, 4);
    sharded.wire_model_bytes = wire;
    sharded.ps_shards = 4;
    sharded.stop.max_iterations = 6;
    const RunResult rp = runJob(plain);
    const RunResult rs = runJob(sharded);
    EXPECT_LT(rs.perIterationMs(), rp.perIterationMs());
}

TEST(ShardedPs, SingleShardReportEqualsPlainPs)
{
    // K=1 sharded PS is the paper's PS: same job, same report, byte
    // for byte, on every fabric, lossless and lossy.
    struct Fabric
    {
        const char *name;
        bool tree;
        bool fat_tree;
    };
    for (const Fabric f : {Fabric{"star", false, false},
                           Fabric{"tree", true, false},
                           Fabric{"fat-tree", false, true}}) {
        for (const double loss : {0.0, 0.01}) {
            auto report = [&](StrategyKind k) {
                JobConfig cfg =
                    JobConfig::forBenchmark(rl::Algo::kPpo, k, 4);
                cfg.wire_model_bytes = 0;
                cfg.ps_shards = 1;
                cfg.use_tree = f.tree;
                cfg.use_fat_tree = f.fat_tree;
                cfg.cluster.per_rack = 2;
                cfg.cluster.racks_per_pod = 1; // 2 racks, 2 pods
                cfg.cluster.edge_link.loss_prob = loss;
                cfg.stop.max_iterations = 6;
                cfg.curve_every = 2;
                cfg.seed = 5;
                return harness::resultToJson(runJob(cfg)).dump(2);
            };
            EXPECT_EQ(report(StrategyKind::kSyncShardedPs),
                      report(StrategyKind::kSyncPs))
                << f.name << ", edge loss " << loss;
        }
    }
}

TEST(ShardedPs, RejectsClusterShardCount)
{
    JobConfig cfg = shardedConfig(2, 1);
    cfg.cluster.ps_shards = 2;
    try {
        makeJob(cfg);
        FAIL() << "ClusterConfig::ps_shards != 1 was accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("JobConfig::ps_shards"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ShardedPs, RejectsZeroShards)
{
    EXPECT_THROW(makeJob(shardedConfig(0, 1)), std::invalid_argument);
}

TEST(ShardedPs, TreeTopologyPlacesShardsAcrossRacks)
{
    // Multi-rack fabrics used to reject K > 1; shards now land
    // round-robin over racks (shard k in rack k % racks).
    JobConfig cfg = shardedConfig(3, 1);
    cfg.use_tree = true;
    cfg.cluster.per_rack = 3; // 2 racks
    auto job = makeJob(cfg);
    const Cluster &c = job->cluster();
    ASSERT_EQ(c.ps_shards.size(), 3u);
    const auto torOf = [](net::Host *h) { return h->link(0)->peerOf(h); };
    EXPECT_EQ(torOf(c.ps_shards[0]), c.leaves[0]);
    EXPECT_EQ(torOf(c.ps_shards[1]), c.leaves[1]);
    EXPECT_EQ(torOf(c.ps_shards[2]), c.leaves[0]); // wraps
}

} // namespace
} // namespace isw::dist
