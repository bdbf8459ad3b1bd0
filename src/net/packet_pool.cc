#include "net/packet_pool.hh"

#include <memory>
#include <utility>

namespace isw::net {

namespace {

/**
 * Free-listed allocator for the shared_ptr control block. Only one
 * node type is ever instantiated (the counted-deleter node for
 * <const Packet>), so a per-type thread-local list suffices.
 */
template <class T>
struct CtrlBlockAlloc
{
    using value_type = T;

    CtrlBlockAlloc() = default;
    template <class U>
    CtrlBlockAlloc(const CtrlBlockAlloc<U> &) noexcept
    {
    }

    struct FreeList
    {
        std::vector<void *> blocks;
        ~FreeList()
        {
            for (void *p : blocks)
                ::operator delete(p);
        }
    };

    static FreeList &
    freeList()
    {
        thread_local FreeList fl;
        return fl;
    }

    T *
    allocate(std::size_t n)
    {
        auto &fl = freeList().blocks;
        if (n == 1 && !fl.empty()) {
            void *p = fl.back();
            fl.pop_back();
            return static_cast<T *>(p);
        }
        return static_cast<T *>(::operator new(n * sizeof(T)));
    }

    void
    deallocate(T *p, std::size_t n)
    {
        auto &fl = freeList().blocks;
        if (n == 1 && fl.size() < 4096) {
            fl.push_back(p);
            return;
        }
        ::operator delete(p);
    }

    template <class U>
    bool
    operator==(const CtrlBlockAlloc<U> &) const noexcept
    {
        return true;
    }
};

} // namespace

struct PacketRecycler
{
    void
    operator()(const Packet *p) const noexcept
    {
        PacketPool::local().recycle(const_cast<Packet *>(p));
    }
};

PacketPool &
PacketPool::local()
{
    thread_local PacketPool pool;
    return pool;
}

PacketPool::~PacketPool()
{
    for (Packet *p : slots_)
        delete p;
}

PacketPtr
PacketPool::seal(Packet &&pkt)
{
    Packet *slot;
    if (!slots_.empty()) {
        slot = slots_.back();
        slots_.pop_back();
        *slot = std::move(pkt);
        ++stats_.packet_reuses;
    } else {
        slot = new Packet(std::move(pkt));
        ++stats_.packet_allocs;
    }
    ++stats_.sealed;
    return PacketPtr(static_cast<const Packet *>(slot), PacketRecycler{},
                     CtrlBlockAlloc<const Packet>{});
}

std::vector<float>
PacketPool::acquireFloats(std::size_t hint)
{
    std::vector<float> buf;
    if (!float_bufs_.empty()) {
        buf = std::move(float_bufs_.back());
        float_bufs_.pop_back();
        ++stats_.float_reuses;
    } else {
        ++stats_.float_allocs;
    }
    buf.clear();
    buf.reserve(hint);
    return buf;
}

void
PacketPool::releaseFloats(std::vector<float> &&buf)
{
    if (buf.capacity() == 0 || float_bufs_.size() >= kMaxIdleFloatBufs)
        return; // nothing worth parking / list full: let it free
    float_bufs_.push_back(std::move(buf));
}

void
PacketPool::recycle(Packet *p)
{
    if (auto *chunk = std::get_if<ChunkPayload>(&p->payload))
        releaseFloats(std::move(chunk->values));
    if (slots_.size() >= kMaxIdleSlots) {
        delete p;
        return;
    }
    slots_.push_back(p);
}

void
PacketPool::trim()
{
    for (Packet *p : slots_)
        delete p;
    slots_.clear();
    float_bufs_.clear();
}

} // namespace isw::net
