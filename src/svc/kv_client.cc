#include "svc/kv_client.h"

#include <array>

#include "fault/fault.h"
#include "msg/wire.h"
#include "svc/kv_server.h"

namespace vialock::svc {

using simkern::VAddr;

KvClient::KvClient(via::Cluster& cluster, via::NodeId node,
                   std::string task_name, KvClientConfig config)
    : node_(cluster.node(node)),
      node_id_(node),
      task_name_(std::move(task_name)),
      config_(config),
      conns_(cluster, node, config.slot_size, config.window,
             config.value_window_bytes) {}

KvClient::~KvClient() {
  for (std::uint32_t id = 0; id < conns_.all().size(); ++id) {
    if (conns_.is_open(id)) teardown_conn(id);
  }
  if (pid_ != simkern::kInvalidPid) node_.agent().release_tenant(pid_);
}

KStatus KvClient::open() {
  if (config_.window == 0 || config_.slot_size < sizeof(KvRequest) ||
      config_.slot_size < sizeof(KvResponse) || config_.completion_batch == 0)
    return KStatus::Inval;
  pid_ = node_.kernel().create_task(task_name_);
  vipl_ = std::make_unique<via::Vipl>(node_.agent(), pid_);
  if (const KStatus st = vipl_->open(); !ok(st)) return st;
  (void)conns_.add_pool(*vipl_);
  conns_.create_cqs();
  return KStatus::Ok;
}

KStatus KvClient::connect(KvServer& server, std::uint32_t tenant,
                          std::uint32_t& conn_out) {
  conn_out = UINT32_MAX;
  if (!vipl_) return KStatus::Proto;
  if (config_.window > server.config().recv_credits) return KStatus::Inval;

  Link link;
  if (const KStatus st = conns_.acquire(0, link); !ok(st)) return st;
  if (const KStatus st = conns_.register_link(link); !ok(st)) return st;
  const std::uint32_t id = conns_.open(link);
  Conn& c = conns_[id];
  c.slot_busy.assign(config_.window, false);
  // Post the response receives before the server can reply.
  conns_.arm(c, conns_.response_slot(c, 0));

  std::uint32_t server_conn = 0;
  if (const KStatus st = server.accept(tenant, node_id_, c.vi, server_conn);
      !ok(st)) {
    // Shed or rejected: take the posted recvs back and recycle everything.
    conns_.close(id);
    return st;
  }
  c.server_conn = server_conn;
  ++stats_.conns_opened;
  conn_out = id;
  return KStatus::Ok;
}

void KvClient::teardown_conn(std::uint32_t conn) {
  stats_.requests_lost += conns_[conn].pending.size();
  conns_.close(conn);
}

KStatus KvClient::close(std::uint32_t conn) {
  if (!conns_.is_open(conn)) return KStatus::Inval;
  teardown_conn(conn);
  ++stats_.conns_closed;
  return KStatus::Ok;
}

KStatus KvClient::abandon(std::uint32_t conn) {
  if (!conns_.is_open(conn)) return KStatus::Inval;
  teardown_conn(conn);
  ++stats_.conns_abandoned;
  return KStatus::Ok;
}

bool KvClient::can_issue(std::uint32_t conn) const {
  return conns_.is_open(conn) && conns_.at(conn).inflight < config_.window;
}

std::uint32_t KvClient::free_slot(const Conn& c) const {
  for (std::uint32_t i = 0; i < config_.window; ++i) {
    if (!c.slot_busy[i]) return i;
  }
  return config_.window;
}

KStatus KvClient::stage(std::uint32_t conn, KvRequest req,
                        std::span<const std::byte> inline_value,
                        std::uint64_t& req_id_out) {
  Conn& c = conns_[conn];
  const std::uint32_t slot = free_slot(c);
  if (slot == config_.window) return KStatus::Busy;

  req.req_id = next_req_id_++;
  if (req.rendezvous) {
    req.window = c.window_mh;
    req.window_addr = conns_.window_slot(c, slot);
  }

  std::array<std::byte, sizeof(KvRequest)> hdr{};
  static_cast<void>(msg::wire::store_pod(std::span<std::byte>(hdr), req));
  const VAddr addr = conns_.request_slot(c, slot);
  if (!ok(node_.kernel().write_user(pid_, addr, hdr))) return KStatus::Fault;
  if (!inline_value.empty()) {
    if (!ok(node_.kernel().write_user(pid_, addr + sizeof(KvRequest),
                                      inline_value)))
      return KStatus::Fault;
  }

  c.staged.push_back(via::Vipl::SendPost{
      c.rings_mh, addr,
      static_cast<std::uint32_t>(sizeof(KvRequest) + inline_value.size()),
      slot_cookie(c.gen, slot)});
  c.slot_busy[slot] = true;
  ++c.inflight;
  c.pending[req.req_id] =
      Pending{slot, req.op, req.key, req.rendezvous != 0};
  req_id_out = req.req_id;
  return KStatus::Ok;
}

KStatus KvClient::put(std::uint32_t conn, std::uint64_t key,
                      std::span<const std::byte> value,
                      std::uint64_t& req_id_out) {
  req_id_out = 0;
  if (!can_issue(conn)) return KStatus::Busy;
  if (value.empty()) return KStatus::Inval;

  KvRequest req;
  req.op = KvOp::Put;
  req.key = key;
  req.value_len = static_cast<std::uint32_t>(value.size());
  req.value_crc = fault::checksum32(value);

  const bool inline_ok =
      value.size() <= config_.inline_threshold &&
      sizeof(KvRequest) + value.size() <= config_.slot_size;
  if (inline_ok) {
    if (const KStatus st = stage(conn, req, value, req_id_out); !ok(st))
      return st;
    stats_.inline_bytes += value.size();
  } else {
    if (value.size() > config_.value_window_bytes) return KStatus::Inval;
    req.rendezvous = 1;
    // The value goes into this slot's window for the server to RDMA-read.
    // stage() picks the slot, so write the bytes after it succeeds.
    if (const KStatus st = stage(conn, req, {}, req_id_out); !ok(st))
      return st;
    const Conn& c = conns_[conn];
    const std::uint32_t slot = c.pending.at(req_id_out).slot;
    if (!ok(node_.kernel().write_user(pid_, conns_.window_slot(c, slot),
                                      value)))
      return KStatus::Fault;
    stats_.rendezvous_bytes += value.size();
  }
  ++stats_.puts;
  return KStatus::Ok;
}

KStatus KvClient::get(std::uint32_t conn, std::uint64_t key,
                      std::uint64_t& req_id_out) {
  req_id_out = 0;
  if (!can_issue(conn)) return KStatus::Busy;
  KvRequest req;
  req.op = KvOp::Get;
  req.key = key;
  // A large value lands in the slot's window; advertise its capacity.
  req.value_len = config_.value_window_bytes;
  req.rendezvous = 1;  // window available - the server picks the path
  if (const KStatus st = stage(conn, req, {}, req_id_out); !ok(st)) return st;
  ++stats_.gets;
  return KStatus::Ok;
}

std::uint32_t KvClient::flush(std::uint32_t conn) {
  if (!conns_.is_open(conn)) return 0;
  Conn& c = conns_[conn];
  if (c.staged.empty()) return 0;
  const auto n = static_cast<std::uint32_t>(c.staged.size());
  conns_.post_sends(c, c.staged);
  if (n > 1) ++stats_.doorbell_flushes;
  c.staged.clear();
  return n;
}

std::uint32_t KvClient::harvest_sends() {
  harvest_buf_.clear();
  const std::uint32_t n = node_.nic().poll_cq_batch(
      conns_.send_cq(), config_.completion_batch, harvest_buf_);
  for (const via::Nic::CqEntry& e : harvest_buf_) {
    if (e.desc.status == via::DescStatus::Done) continue;
    ++stats_.send_errors;
    if (conns_.find(e.vi, e.desc.cookie) != nullptr) ++stats_.broken_conns;
  }
  return n;
}

std::uint32_t KvClient::harvest(std::vector<KvResult>& out) {
  (void)harvest_sends();
  harvest_buf_.clear();
  (void)node_.nic().poll_cq_batch(conns_.recv_cq(), config_.completion_batch,
                                  harvest_buf_);
  std::uint32_t produced = 0;
  for (const via::Nic::CqEntry& e : harvest_buf_) {
    Conn* const found = conns_.find(e.vi, e.desc.cookie);
    if (found == nullptr || !e.desc.done_ok()) {
      ++stats_.stale_completions;
      continue;
    }
    Conn& c = *found;
    const std::uint32_t rslot = cookie_slot(e.desc.cookie);
    const VAddr raddr = conns_.response_slot(c, rslot);

    KvResponse rsp;
    std::array<std::byte, sizeof(KvResponse)> hdr{};
    const bool parsed =
        e.desc.transferred >= sizeof(KvResponse) &&
        ok(node_.kernel().read_user(pid_, raddr, hdr)) &&
        msg::wire::load_pod(hdr, rsp) && rsp.magic == kRspMagic;
    // Return the response credit regardless of what was in the slot.
    conns_.repost(c, rslot, raddr);
    if (!parsed) {
      ++stats_.bad_responses;
      continue;
    }
    const auto pit = c.pending.find(rsp.req_id);
    if (pit == c.pending.end()) {
      ++stats_.bad_responses;
      continue;
    }
    const Pending p = pit->second;
    c.pending.erase(pit);
    c.slot_busy[p.slot] = false;
    if (c.inflight) --c.inflight;

    KvResult r;
    r.req_id = rsp.req_id;
    r.key = p.key;
    r.op = p.op;
    r.status = rsp.status;
    r.rendezvous = rsp.rendezvous != 0;
    r.value_len = rsp.value_len;
    r.value_crc = rsp.value_crc;
    // End-to-end integrity: recompute the checksum over the bytes as they
    // arrived - inline behind the header, or RDMA-written into the window.
    if (p.op == KvOp::Get && rsp.status == KvStatus::Ok) {
      const VAddr vaddr = rsp.rendezvous ? conns_.window_slot(c, p.slot)
                                         : raddr + sizeof(KvResponse);
      value_buf_.resize(rsp.value_len);
      r.data_ok = ok(node_.kernel().read_user(pid_, vaddr, value_buf_)) &&
                  fault::checksum32(value_buf_) == rsp.value_crc;
      if (!r.data_ok) ++stats_.data_corrupt;
      if (rsp.rendezvous)
        stats_.rendezvous_bytes += rsp.value_len;
      else
        stats_.inline_bytes += rsp.value_len;
    }
    ++stats_.responses;
    out.push_back(r);
    ++produced;
  }
  return produced;
}

void KvClient::fill_value(std::span<std::byte> out, std::uint64_t key,
                          std::uint64_t seed) {
  // SplitMix64-flavoured stream: reproducible on any host, cheap to regen.
  std::uint64_t x = seed ^ (key * 0x9E3779B97F4A7C15ULL);
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i % 8 == 0) {
      x += 0x9E3779B97F4A7C15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      x = z ^ (z >> 31);
    }
    out[i] = static_cast<std::byte>((x >> ((i % 8) * 8)) & 0xFF);
  }
}

}  // namespace vialock::svc
