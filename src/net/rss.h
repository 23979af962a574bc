// Receive-side scaling (RSS): Toeplitz flow hashing + an indirection table.
//
// Multi-queue NICs steer each incoming flow to one RX queue so that every
// packet of a flow is serviced by the same CPU (cache locality, no cross-CPU
// reordering). The device hashes the 4-tuple with the Toeplitz function over
// a driver-programmed 40-byte secret key, then indexes a small indirection
// table whose entries name RX queues. This file models exactly that: the
// same hash a real NIC computes, a 128-entry table seeded round-robin.
//
// Why it matters here: the queue a flow lands on decides *which CPU's* IOVA
// magazines and page_frag pool its buffers travel through. A device-side attacker who can choose the 4-tuple chooses the
// victim CPU — the cross-CPU stale-IOTLB scenarios in the soak harness are
// built on that.

#ifndef SPV_NET_RSS_H_
#define SPV_NET_RSS_H_

#include <array>
#include <cstdint>
#include <span>

namespace spv::net {

// The fields a NIC hashes for IPv4 TCP/UDP RSS, in hash order.
struct FlowTuple {
  uint32_t src_ip = 0;
  uint32_t dst_ip = 0;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
};

class Rss {
 public:
  static constexpr size_t kKeyBytes = 40;     // standard RSS key length
  static constexpr size_t kTableSize = 128;   // indirection table entries

  // `num_queues` RX queues; the indirection table is seeded round-robin
  // (entry i -> queue i % num_queues), the reset state of real drivers.
  // The default key is the well-known Microsoft verification key, so hash
  // values are checkable against the RSS specification's test vectors.
  explicit Rss(uint32_t num_queues);
  Rss(uint32_t num_queues, const std::array<uint8_t, kKeyBytes>& key);

  // Toeplitz hash of the tuple (src ip, dst ip, src port, dst port), each
  // big-endian, exactly as the NDIS spec feeds them to the hash.
  uint32_t Hash(const FlowTuple& tuple) const;

  // The RX queue the device steers this flow to.
  uint32_t QueueFor(const FlowTuple& tuple) const {
    return table_[Hash(tuple) % kTableSize];
  }

  uint32_t num_queues() const { return num_queues_; }
  const std::array<uint8_t, kTableSize>& indirection_table() const { return table_; }

  // Raw Toeplitz over an arbitrary byte string (exposed for tests against
  // the published verification vectors).
  static uint32_t Toeplitz(std::span<const uint8_t> data,
                           const std::array<uint8_t, kKeyBytes>& key);

 private:
  uint32_t num_queues_;
  std::array<uint8_t, kKeyBytes> key_;
  std::array<uint8_t, kTableSize> table_;
};

}  // namespace spv::net

#endif  // SPV_NET_RSS_H_
