// sk_buff model and allocation APIs (§5.1).
//
// As in Linux, the SkBuff struct itself lives host-side ("never intentionally
// mapped to the device") while its *data buffer* — including the trailing
// skb_shared_info — lives in simulated physical memory. The three allocation
// paths reproduce the three exposure mechanisms:
//
//   * NetdevAllocSkb: data from a per-CPU page_frag pool (type (c): the page
//     is shared with neighbouring RX buffers and mapped by multiple IOVAs).
//   * BuildSkb: wraps a driver-owned, typically already-DMA-mapped buffer,
//     embedding skb_shared_info inside the I/O region (type (b)).
//   * AllocSkb: data from kmalloc (type (d): page shared with arbitrary
//     same-size-class kernel objects).

#ifndef SPV_NET_SKBUFF_H_
#define SPV_NET_SKBUFF_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "base/types.h"
#include "dma/kernel_memory.h"
#include "net/layouts.h"
#include "slab/page_frag.h"
#include "slab/slab_allocator.h"

namespace spv::net {

enum class BufSource : uint8_t { kPageFrag, kKmalloc, kExternal };

struct OwnedBuffer {
  Kva kva;
  BufSource source = BufSource::kExternal;
  CpuId cpu;  // owning page_frag pool for kPageFrag
};

struct SkBuff {
  uint64_t id = 0;
  Kva head;  // buffer start
  Kva data;  // payload start (headroom skipped)
  Kva end;   // skb_shared_info location
  uint32_t len = 0;       // total payload bytes (linear + frags)
  uint32_t data_len = 0;  // bytes held in frags
  uint64_t truesize = 0;

  PacketHeader header;
  bool header_parsed = false;

  OwnedBuffer linear;                      // the head/data buffer
  std::vector<OwnedBuffer> frag_buffers;   // buffers owned through frags[]

  uint32_t linear_len() const { return len - data_len; }
  Kva shared_info() const { return end; }
};

using SkBuffPtr = std::unique_ptr<SkBuff>;

// The CPU jumping through a function pointer (e.g. the skb destructor). The
// attack module plugs in an NX-enforcing mini-CPU; tests can plug recorders.
class CallbackInvoker {
 public:
  virtual ~CallbackInvoker() = default;
  // `function` is the callback KVA; `arg` the pointer passed in %rdi (the
  // containing ubuf_info, per Fig 4 / §6).
  virtual Status InvokeCallback(Kva function, Kva arg) = 0;
};

class SkbAllocator {
 public:
  SkbAllocator(dma::KernelMemory& kmem, slab::SlabAllocator& slab);

  SkbAllocator(const SkbAllocator&) = delete;
  SkbAllocator& operator=(const SkbAllocator&) = delete;

  // Registers the page_frag pool serving `cpu` (drivers have one per RX ring).
  void RegisterFragPool(CpuId cpu, slab::PageFragPool* pool);
  slab::PageFragPool* frag_pool(CpuId cpu);

  // DAMN (Markuze et al. [49]): a DMA-aware allocator dedicated to network
  // buffers. When set, AllocSkb (the TX path) draws from this pool instead of
  // kmalloc, so I/O buffers never share pages with kernel objects — closing
  // the type (d) leak, though skb_shared_info still rides inside the buffer
  // (the §9 caveat).
  static constexpr CpuId kDamnPoolCpu{0xda30};
  void set_damn_pool(slab::PageFragPool* pool);
  slab::PageFragPool* damn_pool() { return damn_pool_; }

  // netdev_alloc_skb: page_frag-backed data buffer with NET_SKB_PAD headroom
  // and skb_shared_info at the tail.
  Result<SkBuffPtr> NetdevAllocSkb(CpuId cpu, uint32_t len, std::string_view site);

  // __alloc_skb: kmalloc-backed (TCP TX path).
  Result<SkBuffPtr> AllocSkb(uint32_t len, std::string_view site);

  // build_skb: wrap an existing `frag_size`-byte buffer at `head`; places and
  // initializes skb_shared_info inside it. Ownership of the buffer is
  // whatever the caller says it is.
  Result<SkBuffPtr> BuildSkb(Kva head, uint32_t frag_size, OwnedBuffer ownership);

  // How many bytes NetdevAllocSkb really allocates for an `len`-byte packet.
  static uint64_t TruesizeFor(uint32_t len) {
    return SkbDataAlign(kNetSkbPad + len) + SkbDataAlign(SharedInfoLayout::kSize);
  }

  // skb_clone (§5.1): new sk_buff metadata sharing the same data buffer;
  // bumps dataref in the in-memory shared_info. The clone does not own the
  // buffers — the last FreeSkb (dataref -> 0) releases them.
  Result<SkBuffPtr> CloneSkb(const SkBuff& skb);

  // kfree_skb/consume_skb: drops a dataref; on the last reference runs the
  // shared-info destructor callback (if any) through `invoker`, then releases
  // the data buffer(s).
  Status FreeSkb(SkBuffPtr skb, CallbackInvoker* invoker);

  // Adds a frag to `skb` (GRO and zero-copy TX paths): records it in the
  // in-memory shared_info and takes ownership of `buffer` if provided.
  Status AddFrag(SkBuff& skb, const FragRef& frag, std::optional<OwnedBuffer> buffer);

  dma::KernelMemory& kmem() { return kmem_; }

  uint64_t skbs_allocated() const { return next_id_ - 1; }
  uint64_t skbs_freed() const { return skbs_freed_; }

 private:
  Status ReleaseBuffer(const OwnedBuffer& buffer);

  dma::KernelMemory& kmem_;
  slab::SlabAllocator& slab_;
  std::unordered_map<uint32_t, slab::PageFragPool*> frag_pools_;
  slab::PageFragPool* damn_pool_ = nullptr;
  uint64_t next_id_ = 1;
  uint64_t skbs_freed_ = 0;
};

}  // namespace spv::net

#endif  // SPV_NET_SKBUFF_H_
