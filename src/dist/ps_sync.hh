/**
 * @file
 * Synchronous parameter-server training (paper Figure 1a), the PS
 * baseline: workers unicast their gradients to the server; the server
 * waits for *complete* vectors from every worker before summing
 * (conventional aggregation, Figure 8a), performs the weight update,
 * and unicasts the result back to each worker over its single link —
 * the central bottleneck the paper measures (§2.3).
 *
 * The server may be split into K shards, each owning 1/K of the
 * parameter vector: workers scatter their gradient slices to all
 * shards, every shard sums its slice once all N arrive, and sends it
 * back. kSyncPs is the paper's single server (K = 1); kSyncShardedPs
 * is the extension baseline with K = JobConfig::ps_shards, which
 * spreads the aggregation load over K links at the cost of K x N
 * messages per round — context for how much of iSwitch's win survives
 * against a stronger server-side baseline (see
 * `bench_ablation_sharded_ps`).
 *
 * Logically the server returns the aggregated gradient and workers run
 * identical local optimizer replicas; this is mathematically the same
 * as shipping updated weights (same bytes on the wire) and keeps the
 * three synchronous strategies bit-comparable.
 */

#ifndef ISW_DIST_PS_SYNC_HH
#define ISW_DIST_PS_SYNC_HH

#include <deque>

#include "dist/strategy.hh"

namespace isw::dist {

/** Sync PS job: the PS rows of Tables 3/4 and the sharded extension. */
class SyncPsJob : public JobBase
{
  public:
    explicit SyncPsJob(const JobConfig &cfg);

  protected:
    void start() override;

  private:
    /** Logical/wire extent of one shard's slice. */
    struct ShardSpec
    {
        std::uint64_t log_begin = 0;
        std::uint64_t log_end = 0;
        std::uint64_t wire_bytes = 0;
        WireFormat fmt;
    };

    /** Per-shard server state. */
    struct ShardState
    {
        std::vector<VectorAssembler> rx; ///< one per worker
        std::size_t received = 0;
        std::uint64_t round = 0; ///< round this shard is collecting
        ml::Vec sum;
        /** The shard's pipeline stage for result sends (workers use
         *  their per-WorkerCtx processors). */
        std::unique_ptr<PrePostProcessor> ppp;
    };

    void beginRound(WorkerCtx &w);
    void onShardPacket(std::size_t shard, const net::PacketPtr &pkt);
    void shardAggregate(std::size_t shard);
    void onWorkerPacket(WorkerCtx &w, const net::PacketPtr &pkt);
    void onSlicesComplete(WorkerCtx &w);

    /** Worker @p w's gradient slice owned by @p shard. */
    std::span<const float> gradSlice(const WorkerCtx &w,
                                     std::size_t shard) const;

    std::vector<ShardSpec> shards_;
    std::vector<ShardState> state_;
    /** Per-worker count of completed result slices this round. */
    std::vector<std::size_t> slices_done_;
    /** Per-worker per-shard result assemblers. */
    std::vector<std::vector<VectorAssembler>> worker_rx_;
    /** Per-worker reassembled aggregate. */
    std::vector<ml::Vec> agg_;
    /** One shard's weight-update share, written by the round's last
     *  aggregating shard. */
    sim::TimeNs last_server_wu_ = 0;
    sim::Rng ps_rng_;
    /** Loss-recovery timers, flattened worker * K + shard (deque:
     *  RetxTimer is address-pinned by its pending event). */
    std::deque<RetxTimer> grad_retx_;
    std::deque<RetxTimer> result_retx_;
};

} // namespace isw::dist

#endif // ISW_DIST_PS_SYNC_HH
