/**
 * @file
 * PacketPool: per-thread recycling of Packet objects, their shared_ptr
 * control blocks, and chunk float buffers.
 *
 * The simulated datapath creates one heap `shared_ptr<const Packet>`
 * (object + control block) and one fresh `std::vector<float>` per
 * segment per hop — the dominant allocator traffic once the event
 * queue stopped allocating (DESIGN.md §9). The pool mirrors the
 * pre-allocated slot designs of SwitchML/NetReduce in software:
 *
 *  - `seal()` places a Packet into a recycled slot and attaches a
 *    deleter that, when the last reference drops, salvages the chunk's
 *    float buffer into the free list and returns the slot — objects
 *    stay constructed between uses, so capacity survives.
 *  - The shared_ptr control block is allocated through a free-listed
 *    allocator, so the whole send → switch → deliver round trip is
 *    allocation-free in steady state.
 *  - `acquireFloats()` hands senders a recycled, cleared buffer whose
 *    capacity was grown by earlier rounds.
 *
 * Each Simulation runs wholly on one thread, so the thread-local pool
 * is effectively per-Simulation; pool warmth carries across jobs that
 * share a worker thread, which is why alloc/reuse counters are
 * reported as wall-clock-class `perf` metrics, never in the
 * deterministic `extras` (see harness/metrics.hh). `sealed` counts
 * pure packet creations and IS deterministic per job.
 */

#ifndef ISW_NET_PACKET_POOL_HH
#define ISW_NET_PACKET_POOL_HH

#include <cstdint>
#include <vector>

#include "net/packet.hh"

namespace isw::net {

class PacketPool
{
  public:
    /** Creation / recycling counters (monotone; snapshot and diff). */
    struct Stats
    {
        std::uint64_t sealed = 0;        ///< packets created via seal()
        std::uint64_t packet_allocs = 0; ///< slot misses (fresh Packet)
        std::uint64_t packet_reuses = 0; ///< slot hits (recycled Packet)
        std::uint64_t float_allocs = 0;  ///< acquireFloats() misses
        std::uint64_t float_reuses = 0;  ///< acquireFloats() hits
    };

    /** The calling thread's pool. */
    static PacketPool &local();

    PacketPool() = default;
    PacketPool(const PacketPool &) = delete;
    PacketPool &operator=(const PacketPool &) = delete;
    ~PacketPool();

    /** Pooled equivalent of make_shared<const Packet>(std::move(pkt)). */
    PacketPtr seal(Packet &&pkt);

    /**
     * A cleared float buffer with capacity for @p hint elements,
     * recycled from an earlier packet when available.
     */
    std::vector<float> acquireFloats(std::size_t hint);

    /** Return a buffer to the free list (capacity is kept). */
    void releaseFloats(std::vector<float> &&buf);

    Stats stats() const { return stats_; }

    /** Packets currently parked in the slot free list. */
    std::size_t idleSlots() const { return slots_.size(); }
    /** Float buffers currently parked in the free list. */
    std::size_t idleFloatBuffers() const { return float_bufs_.size(); }

    /** Drop all parked slots and buffers (tests; memory release). */
    void trim();

  private:
    friend struct PacketRecycler;

    /** Deleter target: salvage buffers, park the slot. */
    void recycle(Packet *p);

    // Caps bound idle memory only; they never affect simulation
    // results (a full list simply frees instead of parking).
    static constexpr std::size_t kMaxIdleSlots = 4096;
    static constexpr std::size_t kMaxIdleFloatBufs = 4096;

    std::vector<Packet *> slots_;
    std::vector<std::vector<float>> float_bufs_;
    Stats stats_;
};

} // namespace isw::net

#endif // ISW_NET_PACKET_POOL_HH
