/** @file Tests for the sharded parameter-server extension baseline. */

#include <gtest/gtest.h>

#include "dist/strategy.hh"

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

TEST(ShardedPs, SingleShardBehavesLikePlainPsTiming)
{
    // K=1 sharded PS is the plain PS protocol with different transfer
    // bookkeeping; per-iteration times should be close.
    JobConfig plain = JobConfig::forBenchmark(
        rl::Algo::kPpo, StrategyKind::kSyncPs, 4);
    plain.stop.max_iterations = 10;
    JobConfig sharded = JobConfig::forBenchmark(
        rl::Algo::kPpo, StrategyKind::kSyncShardedPs, 4);
    sharded.ps_shards = 1;
    sharded.stop.max_iterations = 10;
    const RunResult rp = runJob(plain);
    const RunResult rs = runJob(sharded);
    EXPECT_NEAR(rs.perIterationMs(), rp.perIterationMs(),
                rp.perIterationMs() * 0.05);
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
