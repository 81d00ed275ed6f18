#include "dma/dma.hpp"

#include "sim/check.hpp"
#include <memory>
#include <unordered_map>

namespace mpsoc::dma {

using txn::Opcode;

namespace {
constexpr std::uint32_t kTagRead = 10;
constexpr std::uint32_t kTagWrite = 11;
}  // namespace

DmaEngine::DmaEngine(sim::ClockDomain& clk, std::string name,
                     txn::InitiatorPort& port, DmaConfig cfg)
    : txn::MasterBase(clk, std::move(name), port,
                      cfg.max_inflight_reads + cfg.buffer_bursts + 2),
      cfg_(cfg) {}

void DmaEngine::program(const DmaDescriptor& d) {
  SIM_CHECK_CTX(d.bytes > 0, name_, &clk_,
                "DMA descriptor programmed with zero length");
  chain_.push_back(d);
  const std::uint64_t granule =
      static_cast<std::uint64_t>(cfg_.burst_beats) * cfg_.bytes_per_beat;
  desc_slices_left_.push_back((d.bytes + granule - 1) / granule);
  // A finished engine sleeps; programming new work is the wake event.
  wake();
}

void DmaEngine::program(const std::vector<DmaDescriptor>& chain) {
  for (const auto& d : chain) program(d);
}


std::uint32_t DmaEngine::sliceBeats(std::uint64_t remaining) const {
  const std::uint64_t full =
      static_cast<std::uint64_t>(cfg_.burst_beats) * cfg_.bytes_per_beat;
  const std::uint64_t bytes = remaining < full ? remaining : full;
  return static_cast<std::uint32_t>(
      (bytes + cfg_.bytes_per_beat - 1) / cfg_.bytes_per_beat);
}

void DmaEngine::evaluate() {
  collectResponses();
  // Chain fully copied and drained: quiesce until program() wakes us.
  if (idle()) {
    sleep();
    return;
  }

  // Drain the copy buffer first (a full buffer would throttle reads).
  if (!write_queue_.empty()) {
    const bool posted = cfg_.posted_writes;
    if ((posted ? canIssuePosted() : canIssue())) {
      issueNextWrite();
      return;  // one bus issue per cycle
    }
  }
  // Fill: next read slice of the active descriptor.
  if (desc_idx_ < chain_.size() && reads_inflight_ < cfg_.max_inflight_reads &&
      write_queue_.size() + reads_inflight_ < cfg_.buffer_bursts &&
      canIssue()) {
    issueNextRead();
  }
}

void DmaEngine::issueNextRead() {
  const DmaDescriptor& d = chain_[desc_idx_];
  const std::uint64_t remaining = d.bytes - read_offset_;
  const std::uint32_t beats = sliceBeats(remaining);

  auto req = std::make_shared<txn::Request>();
  req->id = txn::nextTransactionId();
  req->root_id = req->id;
  req->op = Opcode::Read;
  req->addr = d.src + read_offset_;
  req->beats = beats;
  req->bytes_per_beat = cfg_.bytes_per_beat;
  req->priority = cfg_.priority;
  req->tag = kTagRead;

  PendingWrite pw;
  pw.dst = d.dst + read_offset_;
  pw.beats = beats;
  pw.desc_idx = desc_idx_;
  const std::uint64_t granule =
      static_cast<std::uint64_t>(beats) * cfg_.bytes_per_beat;
  read_offset_ += granule > remaining ? remaining : granule;
  pw.last_of_descriptor = read_offset_ >= d.bytes;
  pending_reads_[req->id] = pw;

  ++reads_inflight_;
  issue(req);

  if (read_offset_ >= d.bytes) {
    ++desc_idx_;
    read_offset_ = 0;
  }
}

void DmaEngine::issueNextWrite() {
  PendingWrite pw = write_queue_.front();
  write_queue_.pop_front();

  auto req = std::make_shared<txn::Request>();
  req->id = txn::nextTransactionId();
  req->root_id = req->id;
  req->op = Opcode::Write;
  req->addr = pw.dst;
  req->beats = pw.beats;
  req->bytes_per_beat = cfg_.bytes_per_beat;
  req->priority = cfg_.priority;
  req->posted = cfg_.posted_writes;
  req->tag = kTagWrite;
  write_descs_[req->id] = pw.desc_idx;
  issue(req);

  if (cfg_.posted_writes) {
    // Posted writes complete at issue.
    completeWriteFor(req->id);
  }
}

void DmaEngine::completeWriteFor(std::uint64_t req_id) {
  auto it = write_descs_.find(req_id);
  SIM_CHECK_CTX(it != write_descs_.end(), name_, &clk_,
                "write completion for untracked request id " << req_id);
  const std::uint64_t desc = it->second;
  write_descs_.erase(it);
  SIM_CHECK_CTX(desc_slices_left_[desc] > 0, name_, &clk_,
                "write completion for finished descriptor " << desc);
  if (--desc_slices_left_[desc] == 0) {
    ++descs_done_;
    if (on_complete_) on_complete_(chain_[desc]);
  }
}

void DmaEngine::onResponse(const txn::ResponsePtr& rsp) {
  if (rsp->req->tag == kTagRead) {
    auto it = pending_reads_.find(rsp->req->id);
    SIM_CHECK_CTX(it != pending_reads_.end(), name_, &clk_,
                  "read response for untracked request id "
                      << rsp->req->id);
    write_queue_.push_back(it->second);
    bytes_copied_ += static_cast<std::uint64_t>(it->second.beats) *
                     cfg_.bytes_per_beat;
    pending_reads_.erase(it);
    SIM_CHECK_CTX(reads_inflight_ > 0, name_, &clk_,
                  "read response with no read in flight");
    --reads_inflight_;
  } else if (rsp->req->tag == kTagWrite) {
    completeWriteFor(rsp->req->id);
  }
}

bool DmaEngine::done() const { return descs_done_ == chain_.size(); }

bool DmaEngine::idle() const {
  return done() && outstanding() == 0 && write_queue_.empty();
}

// --- loosely-timed copy path (fast-forward mode) -----------------------------
//
// LT-EQUIV: tests/test_fastforward.cpp (FfHandoffOracle digest gate)
//
// Only whole descriptors are skipped, and only from a clean engine state (no
// reads in flight, empty copy buffer, no partially read descriptor): the
// slice/in-flight machinery is never touched mid-transfer, so a descriptor
// that was already streaming at fast-forward entry simply finishes accurately
// after handoff.  Cost model: each burst slice needs one read issue and one
// write issue cycle, and every byte crosses the bus twice.

sim::LtDemand DmaEngine::ltPlan(sim::Picos, sim::Picos quantum, sim::Picos) {
  sim::LtDemand d;
  lt_plan_descs_ = 0;
  if (done()) return d;
  const bool clean = reads_inflight_ == 0 && write_queue_.empty() &&
                     pending_reads_.empty() && write_descs_.empty() &&
                     read_offset_ == 0;
  if (!clean) return d;
  std::uint64_t budget = static_cast<std::uint64_t>(quantum / clk_.period());
  for (std::size_t i = desc_idx_; i < chain_.size(); ++i) {
    const std::uint64_t slices = desc_slices_left_[i];
    const std::uint64_t cost = 2 * slices;
    if (cost > budget) break;
    budget -= cost;
    ++lt_plan_descs_;
    d.transactions += cost;
    d.bytes += 2 * chain_[i].bytes;  // read from src + write to dst
  }
  return d;
}

sim::LtDemand DmaEngine::ltCommit(sim::Picos, sim::Picos,
                                  const sim::LtDemand& planned,
                                  std::uint64_t granted_bytes) {
  sim::LtDemand done_now;
  std::uint64_t descs = lt_plan_descs_;
  if (descs == 0) return done_now;
  if (planned.bytes > 0 && granted_bytes < planned.bytes) {
    descs = static_cast<std::uint64_t>(static_cast<unsigned __int128>(descs) *
                                       granted_bytes / planned.bytes);
  }
  for (std::uint64_t k = 0; k < descs && desc_idx_ < chain_.size(); ++k) {
    const std::uint64_t slices = desc_slices_left_[desc_idx_];
    const DmaDescriptor d = chain_[desc_idx_];
    desc_slices_left_[desc_idx_] = 0;
    bytes_copied_ += d.bytes;
    ++descs_done_;
    ++desc_idx_;
    ltRecord(2 * slices, d.bytes, d.bytes);
    done_now.transactions += 2 * slices;
    done_now.bytes += 2 * d.bytes;
    // The callback may program() follow-up descriptors; they join the chain
    // behind desc_idx_ and are picked up by the next quantum's plan.
    if (on_complete_) on_complete_(d);
  }
  return done_now;
}

}  // namespace mpsoc::dma
