#include "via/nic.h"

#include <cassert>
#include <cstring>

#include "via/fabric.h"

namespace vialock::via {

Nic::Nic(simkern::Kernel& host, Clock& clock, const CostModel& costs,
         NicConfig config)
    : host_(host),
      clock_(clock),
      costs_(costs),
      config_(config),
      tpt_(config.tpt_entries),
      dma_bytes_(host.metrics().histogram("via.nic.dma_bytes")),
      descs_per_ring_(host.metrics().histogram("via.nic.descs_per_ring")) {
  using Stats = NicStats;
  static constexpr obs::MetricRow kRows[] = {
      VIALOCK_NIC_STATS(VIALOCK_STAT_ROW)
      obs::computed<[](const Nic& n) { return n.tpt_.used(); }>("tpt.used"),
      obs::computed<[](const Nic& n) { return n.tpt_.free_entries(); }>(
          "tpt.free"),
      obs::computed<[](const Nic& n) { return n.tpt_.free_extent_count(); }>(
          "tpt.free_extents"),
      obs::computed<[](const Nic& n) { return n.tpt_.largest_free_run(); }>(
          "tpt.largest_free_run"),
      obs::computed<[](const Nic& n) { return n.vis_.size(); }>("vis"),
  };
  host_.metrics().register_source("via.nic", this, &stats_, kRows);
}

Nic::~Nic() { host_.metrics().unregister_source("via.nic", this); }

ViId Nic::create_vi(ProtectionTag tag, bool reliable) {
  if (vis_.size() >= config_.max_vis || tag == kInvalidTag) return kInvalidVi;
  Vi v;
  v.id = static_cast<ViId>(vis_.size());
  v.tag = tag;
  v.reliable = reliable;
  vis_.push_back(std::move(v));
  return vis_.back().id;
}

Vi& Nic::vi(ViId id) {
  assert(id < vis_.size());
  return vis_[id];
}

const Vi& Nic::vi(ViId id) const {
  assert(id < vis_.size());
  return vis_[id];
}

bool Nic::vi_exists(ViId id) const { return id < vis_.size(); }

void Nic::program_tpt(TptIndex idx, const TptEntry& e) {
  TptEntry programmed = e;
  if (faults_ && programmed.valid) {
    if (const auto d = faults_->check(fault::FaultSite::TptWrite)) {
      if (d->action == fault::FaultAction::Corrupt) {
        // SRAM bit-flip on the way in: the entry stays valid but points at a
        // different (in-range) frame - the silent wrong-DMA failure mode.
        const auto frames = host_.phys().num_frames();
        programmed.pfn = static_cast<simkern::Pfn>(
            (programmed.pfn ^ d->corrupt_mask) % frames);
        if (programmed.pfn == e.pfn) {
          programmed.pfn = (programmed.pfn + 1) % frames;
        }
        ++stats_.tpt_corruptions;
        host_.trace().record(clock_.now(), TraceEvent::DmaCorrupted, 0, idx,
                             programmed.pfn);
      } else if (d->action == fault::FaultAction::Fail ||
                 d->action == fault::FaultAction::Drop) {
        // Entry evicted/lost: later translations fail the validity check and
        // surface as protection errors.
        programmed.valid = false;
        ++stats_.tpt_evictions;
      }
    }
  }
  tpt_.set(idx, programmed);
  clock_.advance(costs_.pci_reg_write);
  ++stats_.tpt_writes;
}

// ---------------------------------------------------------------------------
// Gather / scatter through the TPT
// ---------------------------------------------------------------------------

bool Nic::gather(const DataSegment& seg, ProtectionTag tag,
                 std::vector<std::byte>& out) {
  const auto base_off = seg.handle.offset_of(seg.addr, seg.length);
  if (!base_off || seg.handle.tag != tag) return false;
  const std::size_t base = out.size();
  out.resize(base + seg.length);
  std::uint32_t done = 0;
  while (done < seg.length) {
    const std::uint64_t off = *base_off + done;
    const auto tr = tpt_.translate(seg.handle.tpt_base, seg.handle.tpt_count,
                                   off, tag, /*rdma_write=*/false,
                                   /*rdma_read=*/false);
    if (!tr) return false;
    const auto chunk = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(seg.length - done,
                                simkern::kPageSize - tr->page_offset));
    auto frame = host_.phys().frame(tr->pfn);
    std::memcpy(out.data() + base + done, frame.data() + tr->page_offset,
                chunk);
    done += chunk;
  }
  clock_.advance(costs_.dma_startup);  // streaming is charged on the path
  return true;
}

bool Nic::gather_desc(const Descriptor& desc, ProtectionTag tag,
                      std::vector<std::byte>& out) {
  if (desc.num_segments() > Descriptor::kMaxSegments) return false;
  out.clear();
  out.reserve(desc.total_length());
  for (std::size_t i = 0; i < desc.num_segments(); ++i) {
    if (!gather(desc.segment(i), tag, out)) return false;
  }
  return true;
}

bool Nic::scatter_desc(const Descriptor& desc, ProtectionTag tag,
                       std::span<const std::byte> data) {
  if (desc.num_segments() > Descriptor::kMaxSegments) return false;
  std::uint64_t done = 0;
  for (std::size_t i = 0; i < desc.num_segments() && done < data.size(); ++i) {
    const DataSegment& seg = desc.segment(i);
    const auto chunk = std::min<std::uint64_t>(seg.length, data.size() - done);
    if (!scatter(seg, tag, data.subspan(done, chunk))) return false;
    done += chunk;
  }
  return done == data.size();
}

bool Nic::scatter(const DataSegment& seg, ProtectionTag tag,
                  std::span<const std::byte> data) {
  assert(data.size() <= seg.length);
  const auto base_off = seg.handle.offset_of(seg.addr, data.size());
  if (!base_off || seg.handle.tag != tag) return false;
  std::uint64_t done = 0;
  while (done < data.size()) {
    const std::uint64_t off = *base_off + done;
    const auto tr = tpt_.translate(seg.handle.tpt_base, seg.handle.tpt_count,
                                   off, tag, /*rdma_write=*/false,
                                   /*rdma_read=*/false);
    if (!tr) return false;
    const auto chunk = std::min<std::uint64_t>(
        data.size() - done, simkern::kPageSize - tr->page_offset);
    auto frame = host_.phys().frame(tr->pfn);
    std::memcpy(frame.data() + tr->page_offset, data.data() + done, chunk);
    done += chunk;
  }
  clock_.advance(costs_.dma_startup);  // streaming is charged on the path
  return true;
}

// ---------------------------------------------------------------------------
// Raw local DMA (locktest primitive)
// ---------------------------------------------------------------------------

KStatus Nic::dma_write_local(const MemHandle& mh, simkern::VAddr addr,
                             std::span<const std::byte> data) {
  DataSegment seg{mh, addr, static_cast<std::uint32_t>(data.size())};
  if (!scatter(seg, mh.tag, data)) {
    ++stats_.protection_errors;
    return KStatus::Fault;
  }
  return KStatus::Ok;
}

KStatus Nic::dma_read_local(const MemHandle& mh, simkern::VAddr addr,
                            std::span<std::byte> out) {
  DataSegment seg{mh, addr, static_cast<std::uint32_t>(out.size())};
  std::vector<std::byte> tmp;
  if (!gather(seg, mh.tag, tmp)) {
    ++stats_.protection_errors;
    return KStatus::Fault;
  }
  std::memcpy(out.data(), tmp.data(), tmp.size());
  return KStatus::Ok;
}

// ---------------------------------------------------------------------------
// Work queues
// ---------------------------------------------------------------------------

void Nic::complete_send(Vi& v, Descriptor desc, DescStatus st) {
  desc.status = st;
  if (st == DescStatus::Done) {
    desc.transferred = static_cast<std::uint32_t>(desc.total_length());
    ++stats_.sends_ok;
  } else if (v.reliable) {
    break_vi(v);
  }
  if (v.send_cq != kInvalidCq) {
    cqs_[v.send_cq].push_back(CqEntry{v.id, /*is_send=*/true, std::move(desc)});
  } else {
    v.send_completed.push_back(std::move(desc));
  }
}

void Nic::complete_recv(Vi& v, Descriptor desc) {
  if (v.recv_cq != kInvalidCq) {
    cqs_[v.recv_cq].push_back(CqEntry{v.id, /*is_send=*/false, std::move(desc)});
  } else {
    v.recv_completed.push_back(std::move(desc));
  }
}

CqId Nic::create_cq() {
  cqs_.emplace_back();
  return static_cast<CqId>(cqs_.size() - 1);
}

KStatus Nic::attach_send_cq(ViId vi_id, CqId cq) {
  if (!vi_exists(vi_id) || cq >= cqs_.size()) return KStatus::Inval;
  vis_[vi_id].send_cq = cq;
  return KStatus::Ok;
}

KStatus Nic::attach_recv_cq(ViId vi_id, CqId cq) {
  if (!vi_exists(vi_id) || cq >= cqs_.size()) return KStatus::Inval;
  vis_[vi_id].recv_cq = cq;
  return KStatus::Ok;
}

std::optional<Nic::CqEntry> Nic::poll_cq(CqId cq) {
  if (cq >= cqs_.size()) return std::nullopt;
  clock_.advance(costs_.pci_reg_read);
  if (cqs_[cq].empty()) return std::nullopt;
  CqEntry e = std::move(cqs_[cq].front());
  cqs_[cq].pop_front();
  return e;
}

std::uint32_t Nic::poll_cq_batch(CqId cq, std::uint32_t max,
                                 std::vector<CqEntry>& out) {
  if (cq >= cqs_.size() || max == 0) return 0;
  clock_.advance(costs_.pci_reg_read);  // one tail read for the whole harvest
  ++stats_.cq_harvests;
  std::uint32_t n = 0;
  while (n < max && !cqs_[cq].empty()) {
    out.push_back(std::move(cqs_[cq].front()));
    cqs_[cq].pop_front();
    ++n;
  }
  stats_.cq_harvested += n;
  return n;
}

void Nic::break_vi(Vi& v) { v.state = ViState::Error; }

KStatus Nic::post_send(ViId id, Descriptor desc) {
  if (!vi_exists(id)) return KStatus::Inval;
  // Stitched under the originating send's trace (the ambient context the
  // transport pushed): doorbell ring -> descriptor fetch -> DMA gather ->
  // wire (fabric.cc) -> remote scatter (deliver()).
  const obs::ScopedSpan post_span(host_.spans(), "via.post_send");
  {
    const obs::ScopedSpan doorbell_span(host_.spans(), "via.doorbell");
    clock_.advance(costs_.doorbell + costs_.dma_startup);  // doorbell + desc fetch
  }
  ++stats_.doorbells;
  ++stats_.sends_posted;

  // Injected doorbell drop: the posted write to the doorbell register is
  // lost, so the NIC never fetches the descriptor. No completion is ever
  // produced - the caller's poll loop sees silence, exactly like real
  // hardware with a flaky PCI posting path.
  if (faults_) {
    if (const auto d = faults_->check(fault::FaultSite::NicDoorbell);
        d && (d->action == fault::FaultAction::Drop ||
              d->action == fault::FaultAction::Fail)) {
      ++stats_.doorbells_dropped;
      return KStatus::Ok;
    }
  }

  return submit_send(id, std::move(desc));
}

KStatus Nic::post_send_batch(ViId id, std::vector<Descriptor> descs) {
  if (!vi_exists(id)) return KStatus::Inval;
  if (descs.empty()) return KStatus::Ok;
  const obs::ScopedSpan post_span(host_.spans(), "via.post_send_batch");
  {
    const obs::ScopedSpan doorbell_span(host_.spans(), "via.doorbell");
    // One MMIO ring announces the chain; the engine still fetches each
    // descriptor (dma_startup apiece), so only the doorbell amortises.
    clock_.advance(costs_.doorbell +
                   costs_.dma_startup * static_cast<Nanos>(descs.size()));
  }
  ++stats_.doorbells;
  ++stats_.doorbell_batches;
  stats_.sends_posted += descs.size();
  descs_per_ring_.add(descs.size());

  // Burst loss semantics: the chain lives in host memory, so a fault during
  // the burst costs exactly the descriptor whose fetch it covered - the
  // engine resynchronises on the chain's next link and the remaining
  // descriptors still post. (The seed checked the fault once for the whole
  // burst and dropped every descriptor behind it, so a single injected
  // drop silently lost N-1 healthy sends - caught by NicBatch tests.)
  for (Descriptor& desc : descs) {
    if (faults_) {
      if (const auto d = faults_->check(fault::FaultSite::NicDoorbell);
          d && (d->action == fault::FaultAction::Drop ||
                d->action == fault::FaultAction::Fail)) {
        ++stats_.doorbells_dropped;
        continue;  // this descriptor alone is lost, never fetched
      }
    }
    const KStatus st = submit_send(id, std::move(desc));
    if (!ok(st)) return st;
  }
  return KStatus::Ok;
}

KStatus Nic::submit_send(ViId id, Descriptor desc) {
  Vi& v = vis_[id];
  if (!v.connected()) {
    complete_send(v, std::move(desc), DescStatus::ErrDisconnected);
    return KStatus::Ok;
  }

  Packet pkt;
  pkt.src_node = node_id_;
  pkt.src_vi = id;
  pkt.dst_vi = v.peer_vi;
  pkt.op = desc.op;
  pkt.remote = desc.remote;
  pkt.immediate = desc.immediate;
  pkt.has_immediate = desc.has_immediate;

  if (desc.op == DescOp::RdmaRead) {
    pkt.read_length = static_cast<std::uint32_t>(desc.total_length());
  } else {
    // Send / RdmaWrite: gather the local segments under this VI's tag.
    const obs::ScopedSpan gather_span(host_.spans(), "via.dma.gather");
    if (!gather_desc(desc, v.tag, pkt.payload)) {
      ++stats_.protection_errors;
      complete_send(v, std::move(desc), DescStatus::ErrProtection);
      return KStatus::Ok;
    }
    stats_.bytes_tx += pkt.payload.size();

    // Injected DMA faults: a bit-flip in the gathered payload (silent - the
    // checksum layer above must catch it) or an engine latency spike.
    if (faults_ && !pkt.payload.empty()) {
      if (const auto d = faults_->check(fault::FaultSite::NicDma)) {
        if (d->action == fault::FaultAction::Corrupt) {
          const std::size_t pos = d->entropy % pkt.payload.size();
          pkt.payload[pos] ^= static_cast<std::byte>(d->corrupt_mask);
          ++stats_.dma_corruptions;
          host_.trace().record(clock_.now(), TraceEvent::DmaCorrupted, 0, pos,
                               0);
        } else if (d->action == fault::FaultAction::Delay) {
          clock_.advance(d->delay);
          ++stats_.dma_delays;
        }
      }
    }
  }

  std::vector<std::byte> read_back;
  assert(fabric_ && "NIC not attached to a fabric");
  const DescStatus st = fabric_->transmit(pkt, &read_back);

  if (desc.op == DescOp::RdmaRead && st == DescStatus::Done) {
    stats_.bytes_rx += read_back.size();
    ++stats_.rdma_reads;
    if (!scatter_desc(desc, v.tag, read_back)) {
      ++stats_.protection_errors;
      complete_send(v, std::move(desc), DescStatus::ErrProtection);
      return KStatus::Ok;
    }
  }
  if (desc.op == DescOp::RdmaWrite && st == DescStatus::Done) {
    ++stats_.rdma_writes;
  }
  complete_send(v, std::move(desc), st);
  return KStatus::Ok;
}

KStatus Nic::post_recv(ViId id, Descriptor desc) {
  if (!vi_exists(id)) return KStatus::Inval;
  Vi& v = vis_[id];
  clock_.advance(costs_.doorbell);
  ++stats_.doorbells;
  ++stats_.recvs_posted;
  desc.op = DescOp::Recv;
  desc.status = DescStatus::Pending;
  v.recv_queue.push_back(std::move(desc));
  return KStatus::Ok;
}

KStatus Nic::post_recv_batch(ViId id, std::vector<Descriptor> descs) {
  if (!vi_exists(id)) return KStatus::Inval;
  if (descs.empty()) return KStatus::Ok;
  Vi& v = vis_[id];
  // One MMIO ring arms the whole chain; receive descriptors are fetched
  // lazily on packet arrival, so there is no per-entry engine work here.
  clock_.advance(costs_.doorbell);
  ++stats_.doorbells;
  ++stats_.doorbell_batches;
  stats_.recvs_posted += descs.size();
  descs_per_ring_.add(descs.size());
  for (Descriptor& desc : descs) {
    desc.op = DescOp::Recv;
    desc.status = DescStatus::Pending;
    v.recv_queue.push_back(std::move(desc));
  }
  return KStatus::Ok;
}

std::optional<Descriptor> Nic::poll_send(ViId id) {
  if (!vi_exists(id)) return std::nullopt;
  Vi& v = vis_[id];
  clock_.advance(costs_.pci_reg_read);  // status poll
  if (v.send_completed.empty()) return std::nullopt;
  { const obs::ScopedSpan s(host_.spans(), "via.completion"); }
  Descriptor d = std::move(v.send_completed.front());
  v.send_completed.pop_front();
  return d;
}

std::optional<Descriptor> Nic::poll_recv(ViId id) {
  if (!vi_exists(id)) return std::nullopt;
  Vi& v = vis_[id];
  clock_.advance(costs_.pci_reg_read);
  if (v.recv_completed.empty()) return std::nullopt;
  { const obs::ScopedSpan s(host_.spans(), "via.completion"); }
  Descriptor d = std::move(v.recv_completed.front());
  v.recv_completed.pop_front();
  return d;
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

DescStatus Nic::deliver(Packet& pkt, std::vector<std::byte>* read_back) {
  // Receiver-side DMA under the sender's trace: the fabric delivers inline
  // (one shared virtual clock), so the ambient context pushed around the
  // transfer is still in scope on this host's recorder.
  const obs::ScopedSpan deliver_span(host_.spans(), "via.dma.deliver");
  dma_bytes_.add(pkt.payload.size());
  if (!vi_exists(pkt.dst_vi)) return DescStatus::ErrDisconnected;
  Vi& v = vis_[pkt.dst_vi];
  if (!v.connected() || v.peer_node != pkt.src_node || v.peer_vi != pkt.src_vi) {
    return DescStatus::ErrDisconnected;
  }

  switch (pkt.op) {
    case DescOp::Send: {
      if (v.recv_queue.empty()) {
        // "A receive descriptor must be posted before the peer starts the
        // send operation. Otherwise the message is dropped and the
        // connection broken" (reliable mode).
        ++stats_.no_recv_desc;
        if (v.reliable) break_vi(v);
        return DescStatus::ErrNoRecvDesc;
      }
      Descriptor rd = std::move(v.recv_queue.front());
      v.recv_queue.pop_front();
      if (pkt.payload.size() > rd.total_length()) {
        ++stats_.length_errors;
        rd.status = DescStatus::ErrLength;
        complete_recv(v, std::move(rd));
        if (v.reliable) break_vi(v);
        return DescStatus::ErrLength;
      }
      if (!scatter_desc(rd, v.tag, pkt.payload)) {
        ++stats_.protection_errors;
        rd.status = DescStatus::ErrProtection;
        complete_recv(v, std::move(rd));
        if (v.reliable) break_vi(v);
        return DescStatus::ErrProtection;
      }
      rd.status = DescStatus::Done;
      rd.transferred = static_cast<std::uint32_t>(pkt.payload.size());
      rd.immediate = pkt.immediate;
      rd.has_immediate = pkt.has_immediate;
      stats_.bytes_rx += pkt.payload.size();
      ++stats_.recvs_ok;
      complete_recv(v, std::move(rd));
      return DescStatus::Done;
    }

    case DescOp::RdmaWrite: {
      DataSegment seg{pkt.remote.handle, pkt.remote.addr,
                      static_cast<std::uint32_t>(pkt.payload.size())};
      // RDMA target checked under the *receiving* VI's tag with the
      // rdma_write_enable attribute.
      const auto base_off = seg.handle.offset_of(seg.addr, seg.length);
      if (!base_off || seg.handle.tag != v.tag) {
        ++stats_.protection_errors;
        if (v.reliable) break_vi(v);
        return DescStatus::ErrProtection;
      }
      std::uint64_t done = 0;
      while (done < pkt.payload.size()) {
        const auto tr =
            tpt_.translate(seg.handle.tpt_base, seg.handle.tpt_count,
                           *base_off + done, v.tag, /*rdma_write=*/true,
                           /*rdma_read=*/false);
        if (!tr) {
          ++stats_.protection_errors;
          if (v.reliable) break_vi(v);
          return DescStatus::ErrProtection;
        }
        const auto chunk = std::min<std::uint64_t>(
            pkt.payload.size() - done, simkern::kPageSize - tr->page_offset);
        auto frame = host_.phys().frame(tr->pfn);
        std::memcpy(frame.data() + tr->page_offset, pkt.payload.data() + done,
                    chunk);
        done += chunk;
      }
      clock_.advance(costs_.dma_startup);
      stats_.bytes_rx += pkt.payload.size();
      if (pkt.has_immediate) {
        // RDMA write with immediate data consumes a receive descriptor.
        if (v.recv_queue.empty()) {
          ++stats_.no_recv_desc;
          if (v.reliable) break_vi(v);
          return DescStatus::ErrNoRecvDesc;
        }
        Descriptor rd = std::move(v.recv_queue.front());
        v.recv_queue.pop_front();
        rd.status = DescStatus::Done;
        rd.transferred = 0;
        rd.immediate = pkt.immediate;
        rd.has_immediate = true;
        complete_recv(v, std::move(rd));
      }
      return DescStatus::Done;
    }

    case DescOp::RdmaRead: {
      assert(read_back);
      DataSegment seg{pkt.remote.handle, pkt.remote.addr, pkt.read_length};
      const auto base_off = seg.handle.offset_of(seg.addr, seg.length);
      if (!base_off || seg.handle.tag != v.tag) {
        ++stats_.protection_errors;
        if (v.reliable) break_vi(v);
        return DescStatus::ErrProtection;
      }
      read_back->resize(pkt.read_length);
      std::uint64_t done = 0;
      while (done < pkt.read_length) {
        const auto tr =
            tpt_.translate(seg.handle.tpt_base, seg.handle.tpt_count,
                           *base_off + done, v.tag, /*rdma_write=*/false,
                           /*rdma_read=*/true);
        if (!tr) {
          ++stats_.protection_errors;
          if (v.reliable) break_vi(v);
          return DescStatus::ErrProtection;
        }
        const auto chunk = std::min<std::uint64_t>(
            pkt.read_length - done, simkern::kPageSize - tr->page_offset);
        auto frame = host_.phys().frame(tr->pfn);
        std::memcpy(read_back->data() + done, frame.data() + tr->page_offset,
                    chunk);
        done += chunk;
      }
      clock_.advance(costs_.dma_startup);
      stats_.bytes_tx += pkt.read_length;
      return DescStatus::Done;
    }

    case DescOp::Recv:
      break;
  }
  return DescStatus::ErrDisconnected;
}

}  // namespace vialock::via
