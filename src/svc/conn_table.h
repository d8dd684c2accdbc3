// conn_table.h - the connection lifecycle both ends of the KV tier share.
//
// KvServer and KvClient hold many connections, one VI apiece, and manage
// them the same way (DESIGN.md section 13): ids reused LIFO with a fresh
// generation per incarnation, stamped into every slot descriptor's cookie so
// a dead incarnation's completion on a reused VI is dropped; per-process LIFO
// free lists of VIs and mapped ring/window memory, each VI attached to the
// shared CQs once, when it is created; registration with rollback; and one
// teardown sequence. A connection's slot rings are `depth` request slots
// followed by `depth` response slots of `slot_size` bytes; the client adds a
// registered value window of `window_slot_bytes` per slot.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "via/node.h"
#include "via/vipl.h"

namespace vialock::svc {

/// Slot-descriptor cookie: (generation << 32 | slot). Bit 63 stays clear, so
/// callers can tag their own descriptors with it (the server's RDMA legs).
[[nodiscard]] constexpr std::uint64_t slot_cookie(std::uint32_t gen,
                                                  std::uint32_t slot) {
  return (static_cast<std::uint64_t>(gen & 0x7FFFFFFFu) << 32) | slot;
}

[[nodiscard]] constexpr std::uint32_t cookie_slot(std::uint64_t cookie) {
  return static_cast<std::uint32_t>(cookie & 0xFFFFFFFFu);
}

/// What one connection holds, at either end.
struct Link {
  bool open = false;
  std::uint32_t pool = 0;  ///< the owning process (the server's tenant)
  std::uint32_t gen = 0;   ///< distinguishes reincarnations on a reused VI
  via::ViId vi = via::kInvalidVi;
  simkern::VAddr rings = 0;
  via::MemHandle rings_mh;
  simkern::VAddr window = 0;  ///< 0 without value windows (the server)
  via::MemHandle window_mh;
};

/// One side's connections. `Conn` extends Link with that side's state.
template <class Conn>
class ConnTable {
  static_assert(std::is_base_of_v<Link, Conn>);

 public:
  ConnTable(via::Cluster& cluster, via::NodeId node, std::uint32_t slot_size,
            std::uint32_t depth, std::uint32_t window_slot_bytes)
      : cluster_(cluster),
        node_(cluster.node(node)),
        node_id_(node),
        slot_size_(slot_size),
        depth_(depth),
        window_bytes_(static_cast<std::uint64_t>(depth) * window_slot_bytes),
        window_slot_bytes_(window_slot_bytes) {}

  /// Create the shared recv and send CQs every connection's VI reports to.
  void create_cqs() {
    recv_cq_ = node_.nic().create_cq();
    send_cq_ = node_.nic().create_cq();
  }
  [[nodiscard]] via::CqId recv_cq() const { return recv_cq_; }
  [[nodiscard]] via::CqId send_cq() const { return send_cq_; }

  /// Add a process whose connections recycle among themselves. Returns its
  /// pool index (Link::pool).
  std::uint32_t add_pool(via::Vipl& vipl) {
    pools_.push_back(Pool{&vipl, {}, {}, {}});
    return static_cast<std::uint32_t>(pools_.size() - 1);
  }

  /// Take a VI, ring memory and (with windows) window memory for a new
  /// connection of `pool`, recycled ones first. On failure nothing is held.
  [[nodiscard]] KStatus acquire(std::uint32_t pool, Link& out) {
    out = Link{};
    out.pool = pool;
    if (recv_cq_ == via::kInvalidCq) return KStatus::Inval;
    Pool& p = pools_[pool];
    if (!p.vis.empty()) {
      out.vi = p.vis.back();
      p.vis.pop_back();
    } else {
      if (const KStatus st = p.vipl->create_vi(out.vi); !ok(st)) return st;
      [[maybe_unused]] const bool attached =
          ok(p.vipl->attach_recv_cq(out.vi, recv_cq_)) &&
          ok(p.vipl->attach_send_cq(out.vi, send_cq_));
      assert(attached);
    }
    const auto rings = take_memory(p, p.rings, ring_bytes());
    const auto window = rings && window_bytes_ != 0
                            ? take_memory(p, p.windows, window_bytes_)
                            : std::optional<simkern::VAddr>(0);
    out.rings = rings.value_or(0);
    out.window = window.value_or(0);
    if (!rings || !window) {
      give_back(out);
      return KStatus::NoMem;
    }
    return KStatus::Ok;
  }

  /// Register the rings (send/recv only) and the window (RDMA-enabled: GETs
  /// write into it, PUTs read from it). On failure every resource goes back
  /// to its free list.
  [[nodiscard]] KStatus register_link(Link& l) {
    via::Vipl& vipl = *pools_[l.pool].vipl;
    KStatus st = vipl.register_mem(
        l.rings, ring_bytes(), l.rings_mh,
        via::KernelAgent::RegisterOptions::send_recv_only());
    if (ok(st) && l.window != 0) {
      st = vipl.register_mem(l.window, window_bytes_, l.window_mh);
      if (!ok(st)) (void)vipl.deregister_mem(l.rings_mh);
    }
    if (!ok(st)) give_back(l);
    return st;
  }

  /// Deregister a registered link and return its resources.
  void release(const Link& l) {
    via::Vipl& vipl = *pools_[l.pool].vipl;
    (void)vipl.deregister_mem(l.rings_mh);
    if (l.window != 0) (void)vipl.deregister_mem(l.window_mh);
    give_back(l);
  }

  /// Open a connection on `link`'s registered resources; returns its id.
  std::uint32_t open(const Link& link) {
    std::uint32_t id = static_cast<std::uint32_t>(conns_.size());
    if (free_ids_.empty()) {
      conns_.emplace_back();
    } else {
      id = free_ids_.back();
      free_ids_.pop_back();
    }
    Conn& c = conns_[id];
    c = Conn{};
    static_cast<Link&>(c) = link;
    c.open = true;
    c.gen = next_gen_++;
    if (c.vi >= conn_of_vi_.size()) conn_of_vi_.resize(c.vi + 1, kNoConn);
    conn_of_vi_[c.vi] = id;
    ++open_;
    return id;
  }

  /// Disconnect, discard the VI's posted descriptors and per-VI completions
  /// (a reused VI must not scatter a new peer's data into deregistered
  /// slots), deregister, and free the resources and the id.
  void close(std::uint32_t id) {
    Conn& c = conns_[id];
    via::Vi& v = node_.nic().vi(c.vi);
    if (v.connected()) (void)cluster_.fabric().disconnect(node_id_, c.vi);
    v.recv_queue.clear();
    v.send_completed.clear();
    v.recv_completed.clear();
    release(c);
    conn_of_vi_[c.vi] = kNoConn;
    free_ids_.push_back(id);
    c.open = false;
    --open_;
  }

  /// The open connection a completion on `vi` with `cookie` belongs to, or
  /// nullptr when the VI serves no connection or the cookie carries a dead
  /// incarnation's generation.
  [[nodiscard]] Conn* find(via::ViId vi, std::uint64_t cookie) {
    if (vi >= conn_of_vi_.size() || conn_of_vi_[vi] == kNoConn) return nullptr;
    Conn& c = conns_[conn_of_vi_[vi]];
    return cookie >> 32 == (c.gen & 0x7FFFFFFFu) ? &c : nullptr;
  }

  /// Post the receives of one ring half (`depth` slots from `first`, slot i
  /// cookied i) behind one gather-list doorbell.
  void arm(const Link& l, simkern::VAddr first) {
    std::vector<via::Vipl::RecvPost> posts;
    posts.reserve(depth_);
    for (std::uint32_t i = 0; i < depth_; ++i)
      posts.push_back({l.rings_mh, first + std::uint64_t{i} * slot_size_,
                       slot_size_, slot_cookie(l.gen, i)});
    (void)pools_[l.pool].vipl->post_recv_batch(l.vi, posts);
  }
  /// Re-post slot `slot`'s receive at `addr` (returns its credit).
  void repost(const Link& l, std::uint32_t slot, simkern::VAddr addr) {
    (void)pools_[l.pool].vipl->post_recv(l.vi, l.rings_mh, addr, slot_size_,
                                         slot_cookie(l.gen, slot));
  }
  /// Post a non-empty burst of sends: one descriptor with post_send, several
  /// behind one batched doorbell.
  void post_sends(const Link& l, std::span<const via::Vipl::SendPost> posts) {
    via::Vipl& vipl = *pools_[l.pool].vipl;
    if (posts.size() == 1) {
      const via::Vipl::SendPost& p = posts.front();
      (void)vipl.post_send(l.vi, p.mh, p.addr, p.len, p.cookie);
    } else {
      (void)vipl.post_send_batch(l.vi, posts);
    }
  }

  [[nodiscard]] std::uint64_t ring_bytes() const {
    return 2ULL * depth_ * slot_size_;
  }
  [[nodiscard]] simkern::VAddr request_slot(const Link& l,
                                            std::uint32_t i) const {
    return l.rings + std::uint64_t{i} * slot_size_;
  }
  [[nodiscard]] simkern::VAddr response_slot(const Link& l,
                                             std::uint32_t i) const {
    return request_slot(l, depth_ + i);
  }
  [[nodiscard]] simkern::VAddr window_slot(const Link& l,
                                           std::uint32_t i) const {
    return l.window + std::uint64_t{i} * window_slot_bytes_;
  }

  [[nodiscard]] bool is_open(std::uint32_t id) const {
    return id < conns_.size() && conns_[id].open;
  }
  [[nodiscard]] Conn& operator[](std::uint32_t id) { return conns_[id]; }
  [[nodiscard]] const Conn& at(std::uint32_t id) const {
    return conns_.at(id);
  }
  [[nodiscard]] std::uint32_t id_of(const Conn& c) const {
    return static_cast<std::uint32_t>(&c - conns_.data());
  }
  [[nodiscard]] const std::vector<Conn>& all() const { return conns_; }
  [[nodiscard]] std::uint32_t open_count() const { return open_; }

 private:
  static constexpr std::uint32_t kNoConn = UINT32_MAX;

  struct Pool {
    via::Vipl* vipl = nullptr;
    std::vector<via::ViId> vis;
    std::vector<simkern::VAddr> rings;
    std::vector<simkern::VAddr> windows;
  };

  [[nodiscard]] std::optional<simkern::VAddr> take_memory(
      const Pool& p, std::vector<simkern::VAddr>& free, std::uint64_t bytes) {
    if (free.empty())
      return node_.kernel().sys_mmap_anon(
          p.vipl->pid(), simkern::page_align_up(bytes),
          simkern::VmFlag::Read | simkern::VmFlag::Write);
    const simkern::VAddr a = free.back();
    free.pop_back();
    return a;
  }

  /// Push whatever `l` holds back onto its pool's free lists.
  void give_back(const Link& l) {
    Pool& p = pools_[l.pool];
    p.vis.push_back(l.vi);
    if (l.rings != 0) p.rings.push_back(l.rings);
    if (l.window != 0) p.windows.push_back(l.window);
  }

  via::Cluster& cluster_;
  via::Node& node_;
  via::NodeId node_id_;
  std::uint32_t slot_size_;
  std::uint32_t depth_;
  std::uint64_t window_bytes_;  ///< per connection; 0 without windows
  std::uint32_t window_slot_bytes_;
  via::CqId recv_cq_ = via::kInvalidCq;
  via::CqId send_cq_ = via::kInvalidCq;
  std::vector<Pool> pools_;
  std::vector<Conn> conns_;
  std::vector<std::uint32_t> free_ids_;
  std::vector<std::uint32_t> conn_of_vi_;  ///< ViId -> conn id, or kNoConn
  std::uint32_t next_gen_ = 1;
  std::uint32_t open_ = 0;
};

}  // namespace vialock::svc
