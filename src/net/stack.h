// The simulated network stack: socket delivery, echo services, GRO, and the
// packet-forwarding path.
//
// Models the specific OS behaviours the compound attacks lean on:
//   * socket objects are kmalloc'd and carry a pointer to init_net — the
//     KASLR-compromising leak of §2.4 (type (d) co-location with I/O pages);
//   * an echo-style userspace service copies attacker-controlled payloads
//     into TX buffers (Poisoned TX, §5.4 option 1);
//   * packet forwarding turns attacker-generated RX packets into TX packets,
//     with GRO filling frags[] with struct page pointers (Forward Thinking,
//     §5.5).

#ifndef SPV_NET_STACK_H_
#define SPV_NET_STACK_H_

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "base/stat_counter.h"
#include "base/status.h"
#include "base/types.h"
#include "dma/kernel_memory.h"
#include "net/gro.h"
#include "net/nic_driver.h"
#include "net/skbuff.h"
#include "slab/slab_allocator.h"

namespace spv::net {

class NetworkStack {
 public:
  struct Config {
    uint32_t local_ip = 0x0a000001;  // 10.0.0.1
    bool forwarding_enabled = false;
  };

  // The hub reads each tally as stack.<name>.
  struct Stats {
    StatCounter rx_delivered;
    StatCounter rx_forwarded;
    StatCounter rx_dropped;
    StatCounter rx_length_errors;  // header payload_len over-claims skb->len
    StatCounter tx_sent;
    StatCounter echoed;
    // TX packets dropped because the egress device was quarantined/detached
    // (PostTx came back kRevoked). Shedding is not an error: the stack keeps
    // serving while spv::recovery decides the device's fate.
    StatCounter tx_shed;
  };

  NetworkStack(dma::KernelMemory& kmem, slab::SlabAllocator& slab, SkbAllocator& skb_alloc,
               Config config);

  NetworkStack(const NetworkStack&) = delete;
  NetworkStack& operator=(const NetworkStack&) = delete;

  void set_callback_invoker(CallbackInvoker* invoker) { invoker_ = invoker; }
  void set_egress(NicDriver* driver) { egress_ = driver; }
  // Optional causal span tracer (per-packet RX/TX spans): nullptr detaches.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

  // Creates a kernel socket object bound to `port`. The object is kmalloc'd
  // and stores the init_net pointer at offset 8 (sk->sk_net), exactly the
  // data §2.4 scans leaked pages for. Returns the socket object's KVA.
  Result<Kva> CreateSocket(uint16_t port, bool echo);

  // RX entry point (napi_gro_receive): GRO, then delivery or forwarding.
  Status NapiGroReceive(SkBuffPtr skb);

  // End of NAPI poll: flush GRO batches through delivery.
  Status NapiComplete();

  // Userspace-initiated TX: copies `payload` into kernel buffers and posts to
  // the egress driver. Payloads above kLinearTxThreshold (512 bytes) are
  // placed in frags (the TCP-stack-with-fragments shape of Fig 8).
  Status SendPacket(const PacketHeader& header, std::span<const uint8_t> payload);

  // TX completion from the driver: unmap, then kfree_skb — which invokes the
  // (device-exposed) destructor callback.
  Status OnTxCompleted(uint32_t tx_index);

  Status FreeSkb(SkBuffPtr skb);

  const Stats& stats() const { return stats_; }
  Kva init_net_kva() const { return init_net_; }
  const Config& config() const { return config_; }

  // Reassembles the full payload (linear + frags) of an skb. Used by the echo
  // service and by tests to check end-to-end delivery.
  Result<std::vector<uint8_t>> ReadPayload(const SkBuff& skb);

 private:
  struct Socket {
    Kva object;
    bool echo;
  };

  Status Deliver(SkBuffPtr skb);
  Status Forward(SkBuffPtr skb);
  Status Echo(const SkBuff& skb);
  // Accounts an RX packet the stack dropped.
  void Drop(uint64_t len, std::string reason);
  // Accounts a TX packet dropped on a revoked egress device.
  void Shed(uint64_t len, std::string_view path);

  dma::KernelMemory& kmem_;
  slab::SlabAllocator& slab_;
  SkbAllocator& skb_alloc_;
  Config config_;
  GroEngine gro_;
  CallbackInvoker* invoker_ = nullptr;
  NicDriver* egress_ = nullptr;
  trace::Tracer* tracer_ = nullptr;
  std::map<uint16_t, Socket> sockets_;
  Kva init_net_;
  Stats stats_;
  std::vector<telemetry::CounterLink> links_;  // after stats_, which it reads
};

}  // namespace spv::net

#endif  // SPV_NET_STACK_H_
