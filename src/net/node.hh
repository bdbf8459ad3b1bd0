/**
 * @file
 * Base class for simulated network devices (hosts and switches).
 *
 * A Node owns a set of numbered ports; each port may be attached to
 * one end of a Link. Delivery is push-based: the Link calls
 * Node::deliver() when the last bit of a frame arrives.
 */

#ifndef ISW_NET_NODE_HH
#define ISW_NET_NODE_HH

#include <string>
#include <vector>

#include "net/packet.hh"
#include "sim/simulation.hh"

namespace isw::net {

class Link;

/** A network device with numbered ports. */
class Node
{
  public:
    Node(sim::Simulation &s, std::string name, std::size_t num_ports);
    virtual ~Node() = default;

    Node(const Node &) = delete;
    Node &operator=(const Node &) = delete;

    const std::string &name() const { return name_; }
    std::size_t numPorts() const { return ports_.size(); }
    sim::Simulation &simulation() { return sim_; }

    /** Attach @p link to @p port (called by Link::connect). */
    void attachLink(std::size_t port, Link *link);

    /** Link on @p port, or nullptr if unattached. */
    Link *link(std::size_t port) const { return ports_.at(port); }

    /** Frame fully received on @p in_port. */
    virtual void deliver(PacketPtr pkt, std::size_t in_port) = 0;

    /** Transmit @p pkt out of @p port. Throws if the port is bare. */
    void sendOut(std::size_t port, PacketPtr pkt);

  protected:
    sim::Simulation &sim_;

  private:
    std::string name_;
    std::vector<Link *> ports_;
};

} // namespace isw::net

#endif // ISW_NET_NODE_HH
