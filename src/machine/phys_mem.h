// Sparse simulated physical memory: a frame allocator plus byte-granularity
// access. Page tables, EPTs and guest data all live in these frames, exactly
// as they would in real DRAM.
//
// Frames are found through a two-level table indexed by frame number: a
// top-level vector of leaves, each covering kLeafFrames consecutive frames
// with one content pointer and one allocated bit per frame. The top level
// grows only to the highest leaf touched, so a machine that uses a few
// hundred low frames pays for one 4 KiB leaf, a poke at a high frame number
// pays for one more leaf plus a pointer per leaf below it, and a lookup is
// two indexed loads whatever the number of live frames — the multi-tenant
// server keeps tens of thousands of frames live and touches them in ASID
// order, which defeated any small lookup cache.
#ifndef MEMSENTRY_SRC_MACHINE_PHYS_MEM_H_
#define MEMSENTRY_SRC_MACHINE_PHYS_MEM_H_

#include <array>
#include <bitset>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "src/base/status.h"
#include "src/base/types.h"

namespace memsentry::machine {

class SnapshotReader;
class SnapshotWriter;

class PhysicalMemory {
 public:
  // total_frames bounds the simulated DRAM size (frames are 4 KiB).
  explicit PhysicalMemory(uint64_t total_frames = uint64_t{1} << 22);  // default 16 GiB

  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  // Allocates a zeroed frame; returns its physical address. The frame is
  // allocated but unmaterialized: it reads as zero and takes no content
  // storage until its first write.
  StatusOr<PhysAddr> AllocFrame();
  Status FreeFrame(PhysAddr frame);

  bool IsAllocated(PhysAddr frame) const;
  uint64_t allocated_frames() const { return allocated_; }
  uint64_t total_frames() const { return total_frames_; }

  // Byte access. Addresses may span frame boundaries only within one frame;
  // callers (the MMU) split accesses at page granularity. A read of a frame
  // with no content is zero; a write materializes the frame, allocating it
  // first if it never was (page tables allocate explicitly; test code may
  // poke memory directly). The interpreter performs one of these per
  // modeled memory access, so the table lookups are inline.
  uint64_t Read64(PhysAddr addr) const {
    assert(PageOffset(addr) + 8 <= kPageSize && "64-bit read crosses a frame boundary");
    uint64_t v = 0;
    if (const Frame* frame = Lookup(PageNumber(addr))) {
      std::memcpy(&v, frame->data() + PageOffset(addr), sizeof(v));
    }
    return v;
  }
  void Write64(PhysAddr addr, uint64_t value) {
    assert(PageOffset(addr) + 8 <= kPageSize && "64-bit write crosses a frame boundary");
    std::memcpy(Writable(PageNumber(addr))->data() + PageOffset(addr), &value, sizeof(value));
  }
  uint8_t Read8(PhysAddr addr) const {
    const Frame* frame = Lookup(PageNumber(addr));
    return frame == nullptr ? 0 : (*frame)[PageOffset(addr)];
  }
  void Write8(PhysAddr addr, uint8_t value) {
    (*Writable(PageNumber(addr)))[PageOffset(addr)] = value;
  }
  void ReadBytes(PhysAddr addr, void* out, uint64_t size) const;
  void WriteBytes(PhysAddr addr, const void* in, uint64_t size);

  // Crash-safe snapshots (src/machine/snapshot.h): allocated frames in
  // ascending frame order, preserving the allocated-but-unmaterialized
  // distinction. LoadState replaces all content and validates the DRAM
  // geometry.
  void SaveState(SnapshotWriter& w) const;
  Status LoadState(SnapshotReader& r);

 private:
  using Frame = std::array<uint8_t, kPageSize>;

  static constexpr int kLeafBits = 9;
  static constexpr uint64_t kLeafFrames = uint64_t{1} << kLeafBits;  // 4 KiB of pointers
  struct Leaf {
    std::array<std::unique_ptr<Frame>, kLeafFrames> content;  // null: reads as zero
    std::bitset<kLeafFrames> allocated;                       // held by the allocator
  };

  // The content of frame `f`, or nullptr when it has none (unallocated or
  // never written).
  Frame* Lookup(uint64_t f) const {
    assert(f < total_frames_ && "physical address out of simulated DRAM");
    const uint64_t leaf = f >> kLeafBits;
    if (leaf >= leaves_.size() || leaves_[leaf] == nullptr) {
      return nullptr;
    }
    return leaves_[leaf]->content[f & (kLeafFrames - 1)].get();
  }
  Frame* Writable(uint64_t f) {
    if (Frame* frame = Lookup(f)) {
      return frame;
    }
    return Materialize(f);
  }
  // Out of line: gives frame `f` zeroed content, allocating it if needed.
  Frame* Materialize(uint64_t f);
  // The leaf covering frame `f`, created (empty) if absent.
  Leaf& LeafFor(uint64_t f);
  bool IsAllocatedFrame(uint64_t f) const;
  // Marks `f` allocated; a frame already held keeps its content.
  void MarkAllocated(uint64_t f);

  uint64_t total_frames_;
  uint64_t next_frame_ = 1;  // frame 0 reserved: phys 0 is never handed out
  uint64_t allocated_ = 0;
  std::vector<std::unique_ptr<Leaf>> leaves_;  // index: frame number >> kLeafBits
};

}  // namespace memsentry::machine

#endif  // MEMSENTRY_SRC_MACHINE_PHYS_MEM_H_
