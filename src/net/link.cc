#include "net/link.hh"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "net/node.hh"

namespace isw::net {

Link::Link(sim::Simulation &s, std::string name, LinkConfig cfg)
    : sim_(s), name_(std::move(name)), cfg_(cfg), loss_rng_(s.forkRng())
{
    if (cfg_.bandwidth_bps <= 0.0)
        throw std::invalid_argument("Link: bandwidth must be positive");
}

void
Link::connect(Node *a, std::size_t a_port, Node *b, std::size_t b_port)
{
    if (ends_[0].node || ends_[1].node)
        throw std::logic_error("Link already connected: " + name_);
    ends_[0] = End{a, a_port, 0};
    ends_[1] = End{b, b_port, 0};
    a->attachLink(a_port, this);
    b->attachLink(b_port, this);
}

sim::TimeNs
Link::txTime(std::size_t bytes) const
{
    const double ns =
        static_cast<double>(bytes) * 8.0 * 1e9 / cfg_.bandwidth_bps;
    return static_cast<sim::TimeNs>(std::llround(ns));
}

int
Link::endIndexOf(const Node *n) const
{
    if (ends_[0].node == n)
        return 0;
    if (ends_[1].node == n)
        return 1;
    throw std::logic_error("Link::transmit from non-endpoint node");
}

Node *
Link::peerOf(const Node *n) const
{
    return ends_[1 - endIndexOf(n)].node;
}

void
Link::transmit(Node *from, PacketPtr pkt)
{
    assert(pkt);
    const int src = endIndexOf(from);
    End &tx = ends_[src];
    End &rx = ends_[1 - src];

    const sim::TimeNs now = sim_.now();
    const sim::TimeNs start = std::max(now, tx.busy_until);
    const sim::TimeNs done = start + txTime(pkt->wireBytes());
    tx.busy_until = done;
    bytes_ += pkt->wireBytes();
    if (tap_)
        tap_(LinkEvent::kTx, pkt);

    if (cfg_.loss_prob > 0.0 && loss_rng_.bernoulli(cfg_.loss_prob)) {
        ++dropped_;
        if (tap_)
            tap_(LinkEvent::kDrop, pkt);
        return; // the pipe time is still consumed: the frame was sent
    }

    sim::TimeNs extra = 0;
    if (channel_ != nullptr) {
        const ChannelVerdict v = channel_->onFrame(*this, pkt);
        if (v.drop) {
            ++dropped_;
            if (tap_)
                tap_(LinkEvent::kDrop, pkt);
            return;
        }
        extra = v.delay;
        if (v.duplicate)
            deliverAt(done + cfg_.propagation + v.dup_delay, rx, pkt);
    }

    deliverAt(done + cfg_.propagation + extra, rx, pkt);
}

void
Link::deliverAt(sim::TimeNs when, const End &rx, const PacketPtr &pkt)
{
    Node *dst_node = rx.node;
    const std::size_t dst_port = rx.port;
    sim_.at(when, [this, dst_node, dst_port, pkt] {
        ++delivered_;
        if (tap_)
            tap_(LinkEvent::kDeliver, pkt);
        dst_node->deliver(pkt, dst_port);
    });
}

} // namespace isw::net
