#include "src/machine/snapshot.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/machine/cache.h"
#include "src/machine/mmu.h"
#include "src/machine/page_table.h"
#include "src/machine/phys_mem.h"
#include "src/machine/registers.h"
#include "src/machine/tlb.h"

namespace memsentry::machine {
namespace {

// Section tags ("four-character codes") for every machine-layer component.
inline constexpr uint32_t kTagPmem = 0x504D454D;   // PMEM
inline constexpr uint32_t kTagPageTable = 0x50475442;  // PGTB
inline constexpr uint32_t kTagTlb = 0x544C4221;    // TLB!
inline constexpr uint32_t kTagCache = 0x43414348;  // CACH
inline constexpr uint32_t kTagHier = 0x48494552;   // HIER
inline constexpr uint32_t kTagMmu = 0x4D4D5521;    // MMU!
inline constexpr uint32_t kTagRegs = 0x52454753;   // REGS

}  // namespace

uint64_t SnapshotDigest(const void* data, uint64_t size) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  uint64_t h = 14695981039346656037ULL;
  for (uint64_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::string SnapshotWriter::Finalize() const {
  std::string blob;
  blob.reserve(kSnapshotHeaderBytes + payload_.size());
  auto put_le = [&blob](uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      blob.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  put_le(kSnapshotMagic, 4);
  put_le(kSnapshotVersion, 4);
  put_le(payload_.size(), 8);
  put_le(SnapshotDigest(payload_.data(), payload_.size()), 8);
  blob += payload_;
  return blob;
}

StatusOr<SnapshotReader> SnapshotReader::Open(std::string_view blob) {
  if (blob.size() < kSnapshotHeaderBytes) {
    return OutOfRange("snapshot truncated: shorter than its header");
  }
  auto le = [&blob](uint64_t off, int bytes) {
    uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(blob[off + static_cast<uint64_t>(i)]))
           << (8 * i);
    }
    return v;
  };
  const auto magic = static_cast<uint32_t>(le(0, 4));
  if (magic != kSnapshotMagic) {
    return InvalidArgument("snapshot magic mismatch: not a memsentry snapshot");
  }
  const auto version = static_cast<uint32_t>(le(4, 4));
  if (version != kSnapshotVersion) {
    return Unimplemented("unsupported snapshot version " + std::to_string(version) +
                         " (loader supports " + std::to_string(kSnapshotVersion) + ")");
  }
  const uint64_t payload_size = le(8, 8);
  if (payload_size != blob.size() - kSnapshotHeaderBytes) {
    return OutOfRange("snapshot truncated: payload size mismatch");
  }
  const uint64_t checksum = le(16, 8);
  std::string payload(blob.substr(kSnapshotHeaderBytes));
  if (SnapshotDigest(payload.data(), payload.size()) != checksum) {
    return InvalidArgument("snapshot checksum mismatch: payload corrupted");
  }
  return SnapshotReader(std::move(payload));
}

bool SnapshotReader::Take(uint64_t n, const char** p) {
  if (!status_.ok()) {
    return false;
  }
  if (n > payload_.size() - pos_) {
    status_ = OutOfRange("snapshot truncated mid-field");
    return false;
  }
  *p = payload_.data() + pos_;
  pos_ += n;
  return true;
}

uint64_t SnapshotReader::Le(int bytes) {
  const char* p = nullptr;
  if (!Take(static_cast<uint64_t>(bytes), &p)) {
    return 0;
  }
  uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

uint8_t SnapshotReader::U8() {
  const char* p = nullptr;
  if (!Take(1, &p)) {
    return 0;
  }
  return static_cast<uint8_t>(*p);
}

void SnapshotReader::Bytes(void* out, uint64_t size) {
  const char* p = nullptr;
  if (!Take(size, &p)) {
    std::memset(out, 0, size);
    return;
  }
  std::memcpy(out, p, size);
}

std::string SnapshotReader::String() {
  const uint64_t size = U64();
  if (!FitCount(size, 1)) {
    return {};
  }
  std::string s(size, '\0');
  Bytes(s.data(), size);
  return s;
}

bool SnapshotReader::FitCount(uint64_t count, uint64_t min_bytes_each) {
  if (!status_.ok()) {
    return false;
  }
  if (min_bytes_each != 0 && count > remaining() / min_bytes_each) {
    status_ = OutOfRange("snapshot truncated: length prefix exceeds payload");
    return false;
  }
  return true;
}

bool SnapshotReader::ExpectTag(uint32_t tag, const char* what) {
  if (U32() != tag) {
    if (status_.ok()) {
      status_ = InvalidArgument(std::string("snapshot section tag mismatch at ") + what);
    }
    return false;
  }
  return status_.ok();
}

void SnapshotReader::Fail(Status status) {
  if (status_.ok()) {
    status_ = std::move(status);
  }
}

Status SnapshotReader::Finish() const {
  if (!status_.ok()) {
    return status_;
  }
  if (remaining() != 0) {
    return InvalidArgument("snapshot has trailing bytes after the last section");
  }
  return OkStatus();
}

// --- PhysicalMemory ----------------------------------------------------------
// Allocated frames are written in ascending frame order so blobs are
// canonical. The allocated-but-unmaterialized distinction is preserved: such
// frames read as zero but occupy allocator slots, and re-materializing them
// eagerly would change allocator behavior.

void PhysicalMemory::SaveState(SnapshotWriter& w) const {
  w.PutTag(kTagPmem);
  w.PutU64(total_frames_);
  w.PutU64(next_frame_);
  w.PutU64(allocated_);
  for (uint64_t leaf = 0; leaf < leaves_.size(); ++leaf) {
    if (leaves_[leaf] == nullptr) {
      continue;
    }
    for (uint64_t i = 0; i < kLeafFrames; ++i) {
      if (!leaves_[leaf]->allocated.test(i)) {
        continue;
      }
      const Frame* frame = leaves_[leaf]->content[i].get();
      w.PutU64((leaf << kLeafBits) | i);
      w.PutBool(frame != nullptr);
      if (frame != nullptr) {
        w.PutBytes(frame->data(), kPageSize);
      }
    }
  }
}

Status PhysicalMemory::LoadState(SnapshotReader& r) {
  if (!r.ExpectTag(kTagPmem, "physical memory")) {
    return r.status();
  }
  const uint64_t total = r.U64();
  if (r.status().ok() && total != total_frames_) {
    return FailedPrecondition("snapshot DRAM geometry mismatch: snapshot has " +
                              std::to_string(total) + " frames, machine has " +
                              std::to_string(total_frames_));
  }
  const uint64_t next = r.U64();
  const uint64_t count = r.U64();
  if (!r.FitCount(count, 9)) {
    return r.status();
  }
  // Decode into a fresh table and swap it in only once the whole section
  // parsed, so a damaged blob leaves the machine untouched.
  PhysicalMemory loaded(total_frames_);
  for (uint64_t i = 0; i < count && r.status().ok(); ++i) {
    const uint64_t number = r.U64();
    const bool materialized = r.Bool();
    if (number >= total_frames_) {
      return InvalidArgument("snapshot frame number out of range");
    }
    loaded.MarkAllocated(number);
    std::unique_ptr<Frame>& content =
        loaded.leaves_[number >> kLeafBits]->content[number & (kLeafFrames - 1)];
    content.reset();
    if (materialized) {
      content = std::make_unique<Frame>();
      r.Bytes(content->data(), kPageSize);
    }
  }
  if (!r.status().ok()) {
    return r.status();
  }
  leaves_ = std::move(loaded.leaves_);
  allocated_ = loaded.allocated_;
  next_frame_ = next;
  return OkStatus();
}

// --- PageTable ---------------------------------------------------------------
// Only the root pointer: every table frame lives in (and is restored with)
// physical memory.

void PageTable::SaveState(SnapshotWriter& w) const {
  w.PutTag(kTagPageTable);
  w.PutU64(root_);
}

Status PageTable::LoadState(SnapshotReader& r) {
  if (!r.ExpectTag(kTagPageTable, "page table")) {
    return r.status();
  }
  const PhysAddr root = r.U64();
  if (r.status().ok() && (root == 0 || (root & (kPageSize - 1)) != 0)) {
    return InvalidArgument("snapshot page-table root is not a frame address");
  }
  if (!r.status().ok()) {
    return r.status();
  }
  root_ = root;
  return OkStatus();
}

// --- Tlb ---------------------------------------------------------------------
// Valid entries only, with their (set, way) coordinates: LRU ticks and the
// mutation version must survive exactly — grant-cache coherence and
// replacement decisions both key off them.

void Tlb::SaveState(SnapshotWriter& w) const {
  w.PutTag(kTagTlb);
  w.PutU64(tick_);
  w.PutU64(version_);
  w.PutU64(stats_.hits);
  w.PutU64(stats_.misses);
  w.PutU64(stats_.flushes);
  uint64_t valid = 0;
  for (const auto& set : sets_) {
    for (const auto& entry : set) {
      valid += entry.valid ? 1 : 0;
    }
  }
  w.PutU64(valid);
  for (int s = 0; s < kSets; ++s) {
    for (int way = 0; way < kWays; ++way) {
      const Entry& entry = sets_[static_cast<size_t>(s)][static_cast<size_t>(way)];
      if (!entry.valid) {
        continue;
      }
      w.PutU16(static_cast<uint16_t>(s));
      w.PutU16(static_cast<uint16_t>(way));
      w.PutU16(entry.vpid);
      w.PutU64(entry.vpn);
      w.PutU64(entry.pte);
      w.PutU64(entry.lru);
    }
  }
}

Status Tlb::LoadState(SnapshotReader& r) {
  if (!r.ExpectTag(kTagTlb, "TLB")) {
    return r.status();
  }
  const uint64_t tick = r.U64();
  const uint64_t version = r.U64();
  TlbStats stats;
  stats.hits = r.U64();
  stats.misses = r.U64();
  stats.flushes = r.U64();
  const uint64_t count = r.U64();
  if (!r.FitCount(count, 30)) {
    return r.status();
  }
  std::array<std::array<Entry, kWays>, kSets> sets{};
  for (uint64_t i = 0; i < count && r.status().ok(); ++i) {
    const uint16_t s = r.U16();
    const uint16_t way = r.U16();
    if (s >= kSets || way >= kWays) {
      return InvalidArgument("snapshot TLB entry coordinates out of range");
    }
    Entry& entry = sets[s][way];
    entry.valid = true;
    entry.vpid = r.U16();
    entry.vpn = r.U64();
    entry.pte = r.U64();
    entry.lru = r.U64();
  }
  if (!r.status().ok()) {
    return r.status();
  }
  sets_ = sets;
  tick_ = tick;
  version_ = version;
  stats_ = stats;
  return OkStatus();
}

// --- CacheArray / CacheHierarchy --------------------------------------------
// Geometry is validated, not restored: a snapshot taken against a different
// cache configuration prices accesses differently and must be rejected.

void CacheArray::SaveState(SnapshotWriter& w) const {
  w.PutTag(kTagCache);
  w.PutU32(static_cast<uint32_t>(ways_));
  w.PutU32(static_cast<uint32_t>(line_shift_));
  w.PutU64(num_sets_);
  w.PutU64(tick_);
  const uint64_t total = num_sets_ * static_cast<uint64_t>(ways_);
  uint64_t valid = 0;
  for (uint64_t i = 0; i < total; ++i) {
    valid += lines_[i].valid() ? 1 : 0;
  }
  w.PutU64(valid);
  for (uint64_t i = 0; i < total; ++i) {
    if (!lines_[i].valid()) {
      continue;
    }
    w.PutU64(i);
    w.PutU64(lines_[i].tag);
    w.PutU64(lines_[i].lru);
  }
}

Status CacheArray::LoadState(SnapshotReader& r) {
  if (!r.ExpectTag(kTagCache, "cache array")) {
    return r.status();
  }
  const auto ways = static_cast<int>(r.U32());
  const auto line_shift = static_cast<int>(r.U32());
  const uint64_t num_sets = r.U64();
  if (r.status().ok() &&
      (ways != ways_ || line_shift != line_shift_ || num_sets != num_sets_)) {
    return FailedPrecondition("snapshot cache geometry mismatch");
  }
  const uint64_t tick = r.U64();
  const uint64_t count = r.U64();
  if (!r.FitCount(count, 24)) {
    return r.status();
  }
  const uint64_t total = num_sets_ * static_cast<uint64_t>(ways_);
  std::vector<Line> lines(total, Line{0, 0});
  for (uint64_t i = 0; i < count && r.status().ok(); ++i) {
    const uint64_t index = r.U64();
    if (index >= total) {
      return InvalidArgument("snapshot cache line index out of range");
    }
    lines[index].tag = r.U64();
    lines[index].lru = r.U64();
  }
  if (!r.status().ok()) {
    return r.status();
  }
  std::memcpy(lines_.get(), lines.data(), total * sizeof(Line));
  tick_ = tick;
  return OkStatus();
}

void CacheHierarchy::SaveState(SnapshotWriter& w) const {
  w.PutTag(kTagHier);
  l1_.SaveState(w);
  l2_.SaveState(w);
  l3_.SaveState(w);
  w.PutU64(stats_.accesses);
  w.PutU64(stats_.l1_hits);
  w.PutU64(stats_.l2_hits);
  w.PutU64(stats_.l3_hits);
  w.PutU64(stats_.dram_accesses);
}

Status CacheHierarchy::LoadState(SnapshotReader& r) {
  if (!r.ExpectTag(kTagHier, "cache hierarchy")) {
    return r.status();
  }
  MEMSENTRY_RETURN_IF_ERROR(l1_.LoadState(r));
  MEMSENTRY_RETURN_IF_ERROR(l2_.LoadState(r));
  MEMSENTRY_RETURN_IF_ERROR(l3_.LoadState(r));
  stats_.accesses = r.U64();
  stats_.l1_hits = r.U64();
  stats_.l2_hits = r.U64();
  stats_.l3_hits = r.U64();
  stats_.dram_accesses = r.U64();
  return r.status();
}

// --- Mmu ---------------------------------------------------------------------
// Grants are a pure cache holding Tlb::Entry pointers into the pre-restore
// TLB, so they are dropped rather than restored; the first post-restore
// access re-derives each verdict through the slow path, which is
// bit-identical by the fast-path contract. Grant hit/miss counters are
// info-only observability and are restored verbatim.

void Mmu::SaveState(SnapshotWriter& w) const {
  w.PutTag(kTagMmu);
  w.PutU16(vpid_);
  w.PutU64(stats_.accesses);
  w.PutU64(stats_.faults);
  w.PutU64(stats_.walk_memory_touches);
  w.PutU64(grant_stats_.hits);
  w.PutU64(grant_stats_.misses);
  tlb_.SaveState(w);
  dcache_.SaveState(w);
}

Status Mmu::LoadState(SnapshotReader& r) {
  if (!r.ExpectTag(kTagMmu, "MMU")) {
    return r.status();
  }
  vpid_ = r.U16();
  stats_.accesses = r.U64();
  stats_.faults = r.U64();
  stats_.walk_memory_touches = r.U64();
  grant_stats_.hits = r.U64();
  grant_stats_.misses = r.U64();
  MEMSENTRY_RETURN_IF_ERROR(tlb_.LoadState(r));
  MEMSENTRY_RETURN_IF_ERROR(dcache_.LoadState(r));
  grants_.assign(kGrantSlots, Grant{});
  return r.status();
}

// --- RegisterFile ------------------------------------------------------------

void SaveRegisterFile(const RegisterFile& regs, SnapshotWriter& w) {
  w.PutTag(kTagRegs);
  for (uint64_t g : regs.gpr) {
    w.PutU64(g);
  }
  for (const Ymm& ymm : regs.ymm) {
    for (uint64_t word : ymm.words) {
      w.PutU64(word);
    }
  }
  for (const BoundRegister& bnd : regs.bnd) {
    w.PutU64(bnd.lower);
    w.PutU64(bnd.upper);
  }
  w.PutBool(regs.bnd_preserve);
  w.PutU32(regs.pkru.value);
  w.PutU64(regs.rip);
  w.PutBool(regs.zero_flag);
}

Status LoadRegisterFile(RegisterFile* regs, SnapshotReader& r) {
  if (!r.ExpectTag(kTagRegs, "register file")) {
    return r.status();
  }
  for (uint64_t& g : regs->gpr) {
    g = r.U64();
  }
  for (Ymm& ymm : regs->ymm) {
    for (uint64_t& word : ymm.words) {
      word = r.U64();
    }
  }
  for (BoundRegister& bnd : regs->bnd) {
    bnd.lower = r.U64();
    bnd.upper = r.U64();
  }
  regs->bnd_preserve = r.Bool();
  regs->pkru.value = r.U32();
  regs->rip = r.U64();
  regs->zero_flag = r.Bool();
  return r.status();
}

}  // namespace memsentry::machine
