#include "src/machine/phys_mem.h"

#include <cassert>

namespace memsentry::machine {

PhysicalMemory::PhysicalMemory(uint64_t total_frames) : total_frames_(total_frames) {}

PhysicalMemory::Leaf& PhysicalMemory::LeafFor(uint64_t f) {
  const uint64_t leaf = f >> kLeafBits;
  if (leaf >= leaves_.size()) {
    leaves_.resize(leaf + 1);
  }
  if (leaves_[leaf] == nullptr) {
    leaves_[leaf] = std::make_unique<Leaf>();
  }
  return *leaves_[leaf];
}

bool PhysicalMemory::IsAllocatedFrame(uint64_t f) const {
  const uint64_t leaf = f >> kLeafBits;
  return leaf < leaves_.size() && leaves_[leaf] != nullptr &&
         leaves_[leaf]->allocated.test(f & (kLeafFrames - 1));
}

void PhysicalMemory::MarkAllocated(uint64_t f) {
  Leaf& leaf = LeafFor(f);
  if (!leaf.allocated.test(f & (kLeafFrames - 1))) {
    leaf.allocated.set(f & (kLeafFrames - 1));
    ++allocated_;
  }
}

StatusOr<PhysAddr> PhysicalMemory::AllocFrame() {
  if (next_frame_ >= total_frames_) {
    // Linear scan for a freed frame; allocation is not on the simulated hot
    // path so simplicity wins over a free list.
    for (uint64_t f = 1; f < total_frames_; ++f) {
      if (!IsAllocatedFrame(f)) {
        MarkAllocated(f);  // materialized lazily on first write
        return PhysAddr{f << kPageShift};
      }
    }
    return ResourceExhausted("physical memory exhausted");
  }
  const uint64_t f = next_frame_++;
  MarkAllocated(f);  // materialized lazily on first write
  return PhysAddr{f << kPageShift};
}

Status PhysicalMemory::FreeFrame(PhysAddr frame) {
  const uint64_t f = PageNumber(frame);
  if (!IsAllocatedFrame(f)) {
    return NotFound("freeing unallocated frame");
  }
  Leaf& leaf = *leaves_[f >> kLeafBits];
  leaf.allocated.reset(f & (kLeafFrames - 1));
  leaf.content[f & (kLeafFrames - 1)].reset();
  --allocated_;
  return OkStatus();
}

bool PhysicalMemory::IsAllocated(PhysAddr frame) const {
  return IsAllocatedFrame(PageNumber(frame));
}

PhysicalMemory::Frame* PhysicalMemory::Materialize(uint64_t f) {
  assert(f < total_frames_ && "physical address out of simulated DRAM");
  MarkAllocated(f);
  std::unique_ptr<Frame>& content = leaves_[f >> kLeafBits]->content[f & (kLeafFrames - 1)];
  if (content == nullptr) {
    content = std::make_unique<Frame>();  // value-initialized: all zero
  }
  return content.get();
}

void PhysicalMemory::ReadBytes(PhysAddr addr, void* out, uint64_t size) const {
  assert(PageOffset(addr) + size <= kPageSize && "read crosses a frame boundary");
  const Frame* frame = Lookup(PageNumber(addr));
  if (frame == nullptr) {
    std::memset(out, 0, size);
    return;
  }
  std::memcpy(out, frame->data() + PageOffset(addr), size);
}

void PhysicalMemory::WriteBytes(PhysAddr addr, const void* in, uint64_t size) {
  assert(PageOffset(addr) + size <= kPageSize && "write crosses a frame boundary");
  std::memcpy(Writable(PageNumber(addr))->data() + PageOffset(addr), in, size);
}

}  // namespace memsentry::machine
