/** @file Chaos matrix on a partitioned fabric: lossy, faulted and
 *  failover runs of every strategy on a two-rack tree, and weight
 *  checks of sync iSwitch on tree and fat-tree fabrics. The star-only
 *  matrices in chaos_test.cc never reach the tree fabric's hierarchical
 *  aggregation, cross-rack PS placement or ToR failover under loss;
 *  these cells do.
 *
 *  The suite names predate the serial-only engine, when these cells
 *  also ran on a parallel one; they are kept so the test ids stay
 *  stable. Every run here is an ordinary serial run. */

#include <gtest/gtest.h>

#include "dist/strategy.hh"

namespace isw::dist {
namespace {

JobConfig
treeChaosConfig(StrategyKind k, std::size_t workers = 6,
                std::uint64_t iters = 6)
{
    JobConfig cfg = JobConfig::forBenchmark(rl::Algo::kPpo, k, workers);
    cfg.wire_model_bytes = 0; // actual model size: fast tests
    cfg.use_tree = true;
    cfg.cluster.per_rack = 3;
    cfg.stop.max_iterations = iters;
    cfg.stop.max_sim_time = 120 * sim::kSec; // fault-recovery safety net
    cfg.curve_every = 3;
    cfg.seed = 23;
    return cfg;
}

void
addBurstLoss(JobConfig &cfg)
{
    cfg.faults.ge.p_good_to_bad = 0.02;
    cfg.faults.ge.p_bad_to_good = 0.25;
    cfg.faults.ge.loss_bad = 0.8;
}

void
addCrash(JobConfig &cfg)
{
    // Blackout worker 2's edge link mid-training; silent partition the
    // retransmission layer must ride out on its own.
    cfg.faults.crashes.push_back(
        net::WorkerCrash{2, 20 * sim::kMsec, 60 * sim::kMsec, false});
}

class ShardedChaosMatrix : public ::testing::TestWithParam<StrategyKind>
{
  protected:
    /** Six rounds of every worker: Async PS counts one iteration per
     *  worker push, so it runs workers x 6 of them. */
    static JobConfig
    config()
    {
        const StrategyKind k = GetParam();
        return treeChaosConfig(k, 6, k == StrategyKind::kAsyncPs ? 36 : 6);
    }

    /** The faulted run drops frames, recovers, and finishes. */
    static void
    checkFaultedRun(const JobConfig &faulty, const char *drop_key)
    {
        const RunResult res = runJob(faulty);
        ASSERT_TRUE(res.ok()) << res.error;
        EXPECT_GE(res.iterations, faulty.stop.max_iterations);
        EXPECT_GT(res.extras.at(drop_key), 0.0) << drop_key;
    }
};

TEST_P(ShardedChaosMatrix, SurvivesIidLossSharded)
{
    JobConfig cfg = config();
    cfg.faults.extra_loss = 0.01;
    checkFaultedRun(cfg, "fault_iid_drops");
}

TEST_P(ShardedChaosMatrix, SurvivesBurstLossSharded)
{
    JobConfig cfg = config();
    addBurstLoss(cfg);
    checkFaultedRun(cfg, "fault_ge_drops");
}

TEST_P(ShardedChaosMatrix, SurvivesCrashAndRejoinSharded)
{
    JobConfig cfg = config();
    addCrash(cfg);
    checkFaultedRun(cfg, "fault_down_drops");
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, ShardedChaosMatrix,
    ::testing::Values(StrategyKind::kSyncPs, StrategyKind::kSyncAllReduce,
                      StrategyKind::kSyncIswitch,
                      StrategyKind::kSyncShardedPs, StrategyKind::kAsyncPs,
                      StrategyKind::kAsyncIswitch),
    [](const auto &info) {
        switch (info.param) {
          case StrategyKind::kSyncPs: return "SyncPs";
          case StrategyKind::kSyncAllReduce: return "SyncAr";
          case StrategyKind::kSyncIswitch: return "SyncIsw";
          case StrategyKind::kSyncShardedPs: return "ShardedPs";
          case StrategyKind::kAsyncPs: return "AsyncPs";
          case StrategyKind::kAsyncIswitch: return "AsyncIsw";
        }
        return "?";
    });

/** Switch-crash failover on the tree fabric (DESIGN.md §15): the core
 *  switch fail-stops mid-training, ToRs re-home to the backup core,
 *  and the run finishes. Sync runs must land on the lossless weights;
 *  async runs must stay live. */
class ShardedFailoverMatrix : public ::testing::TestWithParam<StrategyKind>
{
};

TEST_P(ShardedFailoverMatrix, CoreSwitchCrashFailsOverSharded)
{
    const JobConfig cfg = treeChaosConfig(GetParam());
    // Lossless no-HA baseline anchors the weight contract.
    auto basejob = makeJob(cfg);
    const RunResult baseres = basejob->run();
    ASSERT_TRUE(baseres.ok()) << baseres.error;

    JobConfig crashy = cfg;
    crashy.cluster.ha.with_backup = true;
    crashy.faults.switch_crashes.push_back(
        net::SwitchCrash{baseres.total_time * 3 / 10, 0});

    auto job = makeJob(crashy);
    const RunResult res = job->run();
    ASSERT_TRUE(res.ok()) << res.error;
    EXPECT_GE(res.iterations, crashy.stop.max_iterations);
    ASSERT_TRUE(res.extras.count("failover_events"));
    EXPECT_EQ(res.extras.at("failover_events"), 1.0);
    EXPECT_GT(res.extras.at("failover_beats_missed"), 0.0);
    // Only the iSwitch plane replicates aggregation state; for PS
    // strategies the backup is pure routing + membership shadow.
    if (crashy.strategy == StrategyKind::kSyncIswitch ||
        crashy.strategy == StrategyKind::kAsyncIswitch) {
        EXPECT_GT(res.extras.at("failover_repl_frames"), 0.0);
    }
    EXPECT_GT(res.extras.at("fault_switch_drops"), 0.0);
    if (isAsyncStrategy(crashy.strategy))
        return;
    EXPECT_EQ(res.iterations, baseres.iterations);
    ml::Vec bw, w;
    basejob->workerAgent(0).getWeights(bw);
    job->workerAgent(0).getWeights(w);
    ASSERT_EQ(w.size(), bw.size());
    const float tol =
        crashy.strategy == StrategyKind::kSyncIswitch ? 1e-4f : 1e-6f;
    for (std::size_t i = 0; i < w.size(); ++i)
        ASSERT_NEAR(w[i], bw[i], tol) << "weight " << i;
}

INSTANTIATE_TEST_SUITE_P(
    CoreStrategies, ShardedFailoverMatrix,
    ::testing::Values(StrategyKind::kSyncPs, StrategyKind::kSyncIswitch,
                      StrategyKind::kAsyncIswitch),
    [](const auto &info) {
        switch (info.param) {
          case StrategyKind::kSyncPs: return "SyncPs";
          case StrategyKind::kSyncIswitch: return "SyncIsw";
          case StrategyKind::kAsyncIswitch: return "AsyncIsw";
          default: return "?";
        }
    });

/** Sync iSwitch on the hierarchical fabrics under loss and crashes
 *  (DESIGN.md §10, §13): every level dedupes its children's
 *  re-forwards and re-serves already-completed segments from its
 *  result cache, so a faulted run lands on the lossless weights and
 *  every worker holds the same ones. PPO, 8 workers in racks of 2. */
enum class Hierarchy { kTree, kFatTreeOnePod, kFatTreeTwoPods };
enum class Fault { kIidLoss, kBurstLoss, kUplinkLoss, kCrash };

JobConfig
hierarchyConfig(Hierarchy h)
{
    JobConfig cfg = treeChaosConfig(StrategyKind::kSyncIswitch, 8, 6);
    cfg.cluster.per_rack = 2;
    if (h != Hierarchy::kTree) {
        cfg.use_tree = false;
        cfg.use_fat_tree = true;
        cfg.cluster.racks_per_pod = h == Hierarchy::kFatTreeOnePod ? 4 : 2;
    }
    return cfg;
}

void
expectLosslessWeights(Hierarchy h, Fault f)
{
    const JobConfig cfg = hierarchyConfig(h);
    auto basejob = makeJob(cfg);
    const RunResult baseres = basejob->run();
    ASSERT_TRUE(baseres.ok()) << baseres.error;

    JobConfig faulty = cfg;
    switch (f) {
      case Fault::kIidLoss: faulty.faults.extra_loss = 0.01; break;
      case Fault::kBurstLoss: addBurstLoss(faulty); break;
      case Fault::kUplinkLoss: faulty.cluster.uplink.loss_prob = 0.01; break;
      case Fault::kCrash: addCrash(faulty); break;
    }
    auto job = makeJob(faulty);
    const RunResult res = job->run();
    ASSERT_TRUE(res.ok()) << res.error;
    EXPECT_EQ(res.iterations, faulty.stop.max_iterations);
    ml::Vec bw, w0, w7;
    basejob->workerAgent(0).getWeights(bw);
    job->workerAgent(0).getWeights(w0);
    job->workerAgent(7).getWeights(w7);
    ASSERT_EQ(w0.size(), bw.size());
    for (std::size_t i = 0; i < w0.size(); ++i)
        ASSERT_NEAR(w0[i], bw[i], 1e-4f) << "weight " << i;
    EXPECT_EQ(w0, w7);
}

class FatTreeChaos
    : public ::testing::TestWithParam<std::tuple<Hierarchy, Fault>>
{
};

TEST_P(FatTreeChaos, SyncIswitchMatchesLossless)
{
    expectLosslessWeights(std::get<0>(GetParam()), std::get<1>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    PodsAndFaults, FatTreeChaos,
    ::testing::Combine(::testing::Values(Hierarchy::kFatTreeOnePod,
                                         Hierarchy::kFatTreeTwoPods),
                       ::testing::Values(Fault::kIidLoss, Fault::kBurstLoss,
                                         Fault::kUplinkLoss, Fault::kCrash)),
    [](const auto &info) {
        std::string name = std::get<0>(info.param) ==
                                   Hierarchy::kFatTreeOnePod
                               ? "OnePod"
                               : "TwoPods";
        switch (std::get<1>(info.param)) {
          case Fault::kIidLoss: return name + "Iid";
          case Fault::kBurstLoss: return name + "Burst";
          case Fault::kUplinkLoss: return name + "Uplink";
          case Fault::kCrash: return name + "Crash";
        }
        return name;
    });

TEST(ShardedChaos, TreeSyncIswitchUplinkLossMatchesLossless)
{
    expectLosslessWeights(Hierarchy::kTree, Fault::kUplinkLoss);
}

TEST(ShardedChaos, MultiShardPsPlacesShardsAcrossRacks)
{
    // Tree builders spread PS shards round-robin over racks: shard k
    // hangs off rack k % racks's ToR.
    JobConfig cfg = treeChaosConfig(StrategyKind::kSyncShardedPs, 6, 4);
    cfg.ps_shards = 3;
    auto job = makeJob(cfg);
    const Cluster &c = job->cluster();
    ASSERT_EQ(c.ps_shards.size(), 3u);
    const auto torOf = [](net::Host *h) { return h->link(0)->peerOf(h); };
    EXPECT_EQ(torOf(c.ps_shards[0]), c.leaves[0]);
    EXPECT_EQ(torOf(c.ps_shards[1]), c.leaves[1]);
    EXPECT_EQ(torOf(c.ps_shards[2]), c.leaves[0]); // wraps: 2 racks
}

TEST(ShardedChaos, AnnouncedCrashLeaveJoinRunsInHomeDomain)
{
    // announce=true drives real Leave/Join control frames from the
    // crashed worker's host through its ToR; the membership change
    // must recompute auto-H and the run must still finish.
    JobConfig cfg = treeChaosConfig(StrategyKind::kAsyncIswitch, 6, 12);
    cfg.faults.crashes.push_back(
        net::WorkerCrash{3, 20 * sim::kMsec, 60 * sim::kMsec, true});
    const RunResult res = runJob(cfg);
    ASSERT_TRUE(res.ok()) << res.error;
    EXPECT_GE(res.iterations, 12u);
}

} // namespace
} // namespace isw::dist
