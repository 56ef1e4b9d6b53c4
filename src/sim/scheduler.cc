#include "src/sim/scheduler.h"

#include <algorithm>
#include <cassert>

namespace memsentry::sim {

Scheduler::Scheduler(const SchedulerConfig& config, uint16_t num_tenants)
    : config_(config), tenants_(num_tenants) {}

void Scheduler::Submit(uint16_t tenant, uint64_t seq, Cycles arrival) {
  assert(tenant < tenants_.size() && !ran_);
  pending_.push_back(Pending{arrival, tenant, seq});
}

void Scheduler::MakeReady(uint16_t tenant) {
  Tenant& t = tenants_[tenant];
  if (!t.in_ready && t.head < t.admitted) {
    t.in_ready = true;
    ready_.push_back(tenant);
  }
}

void Scheduler::AdmitUpTo(Cycles now) {
  while (admit_cursor_ < pending_.size() && pending_[admit_cursor_].arrival <= now) {
    // A tenant's requests arrive in its slice's order, so admitting one is
    // extending the admitted prefix of that slice.
    const uint16_t tenant = pending_[admit_cursor_].tenant;
    ++tenants_[tenant].admitted;
    MakeReady(tenant);
    ++admit_cursor_;
  }
}

std::vector<CompletedRequest> Scheduler::Run(const PhaseRunner& runner) {
  assert(!ran_ && "Scheduler::Run runs once");
  ran_ = true;
  // Stable sort: simultaneous arrivals are served in submission order, which
  // keeps the whole run a pure function of the submission sequence.
  std::stable_sort(pending_.begin(), pending_.end(),
                   [](const Pending& a, const Pending& b) { return a.arrival < b.arrival; });
  // Stable counting sort by tenant: each tenant's slice of queue_ lists its
  // requests in admission order, which is the order its FIFO serves them.
  // `admitted` is borrowed as the count, then as the fill cursor.
  for (const Pending& p : pending_) {
    ++tenants_[p.tenant].admitted;
  }
  size_t offset = 0;
  for (Tenant& t : tenants_) {
    const size_t count = t.admitted;
    t.head = t.admitted = offset;
    offset += count;
  }
  queue_.resize(pending_.size());
  for (const Pending& p : pending_) {
    queue_[tenants_[p.tenant].admitted++] = Queued{p.seq, p.arrival};
  }
  for (Tenant& t : tenants_) {
    t.admitted = t.head;
  }
  std::vector<CompletedRequest> completed;
  completed.reserve(pending_.size());

  AdmitUpTo(clock_);
  while (completed.size() < pending_.size()) {
    if (ready_.empty()) {
      // Nothing runnable: fast-forward to the next arrival. There must be
      // one, or the completion count above would have terminated the loop.
      assert(admit_cursor_ < pending_.size());
      clock_ = std::max(clock_, pending_[admit_cursor_].arrival);
      ++stats_.idle_jumps;
      AdmitUpTo(clock_);
      continue;
    }
    const uint16_t tenant = ready_.front();
    ready_.pop_front();
    Tenant& t = tenants_[tenant];
    t.in_ready = false;

    if (current_ != tenant) {
      // The first dispatch is charged too: the CPU comes from the kernel's
      // idle context, not from a tenant with warm state.
      ++stats_.context_switches;
      stats_.switch_cycles += config_.context_switch_cycles;
      clock_ += config_.context_switch_cycles;
      current_ = tenant;
      if (switch_hook_) {
        switch_hook_(tenant);
      }
    }

    const Cycles quantum_end = clock_ + config_.quantum;
    while (t.head < t.admitted && clock_ < quantum_end) {
      const Queued& req = queue_[t.head];
      bool done = false;
      const Cycles used = runner(tenant, req.seq, t.phase, &done);
      clock_ += used;
      t.busy_cycles += used;
      stats_.busy_cycles += used;
      if (done) {
        completed.push_back(CompletedRequest{tenant, req.seq, req.arrival, clock_});
        ++t.completed;
        ++t.head;
        t.phase = 0;
      } else {
        ++t.phase;
      }
    }
    // Arrivals that landed during the slice become runnable before the next
    // dispatch decision — including for the tenant that just ran.
    AdmitUpTo(clock_);
    if (t.head < t.admitted) {
      ++stats_.preemptions;
      MakeReady(tenant);
    }
  }
  return completed;
}

}  // namespace memsentry::sim
