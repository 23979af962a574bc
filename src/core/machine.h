// Machine: the facade wiring every substrate into one simulated host.
//
// Construction order mirrors a boot: physical memory, kernel layout (KASLR),
// page allocator (with the kernel image reserved), IOMMU, DMA API, slab,
// network stack. NIC drivers (and their per-CPU page_frag pools) are added
// like module loads. This is the public entry point of the library — see
// examples/quickstart.cc.

#ifndef SPV_CORE_MACHINE_H_
#define SPV_CORE_MACHINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "base/clock.h"
#include "base/exec.h"
#include "base/rng.h"
#include "base/status.h"
#include "base/types.h"
#include "dma/dma_api.h"
#include "dma/kernel_memory.h"
#include "fault/fault.h"
#include "forensics/flight_recorder.h"
#include "forensics/incident.h"
#include "iommu/iommu.h"
#include "mem/kernel_layout.h"
#include "mem/page_allocator.h"
#include "mem/page_db.h"
#include "mem/phys_memory.h"
#include "net/nic_driver.h"
#include "net/skbuff.h"
#include "net/stack.h"
#include "nvme/nvme_driver.h"
#include "dma/bounce_pool.h"
#include "policy/policy.h"
#include "recovery/recovery.h"
#include "slab/page_frag.h"
#include "slab/slab_allocator.h"
#include "telemetry/telemetry.h"
#include "trace/tracer.h"

namespace spv::core {

struct MachineConfig {
  uint64_t phys_pages = 16384;  // 64 MiB of simulated RAM
  bool kaslr = true;
  // CONFIG_GCC_PLUGIN_RANDSTRUCT-style structure layout randomization
  // (paper footnote 2): shuffles skb_shared_info's destructor_arg slot.
  bool randomize_struct_layout = false;
  uint64_t seed = 1;
  // Deferred mode by default, like Linux. fast_path.num_cpus is the sim CPU
  // count.
  iommu::Iommu::Config iommu;
  net::NetworkStack::Config net;
  // Recording is off by default; flip `telemetry.enabled` to collect counters
  // and a trace ring for the whole machine.
  telemetry::Hub::Config telemetry;
  // Causal span tracing (spv::trace). Off by default; flip `trace.enabled`
  // to open spans around every multi-step operation and account
  // vulnerability windows. The tracer keeps only open spans: closed ones
  // live in the telemetry ring, so without `telemetry.enabled` it keeps no
  // history and its exports hold no spans.
  trace::TracerConfig trace;
  // Deterministic fault injection: a non-empty plan arms the machine-wide
  // FaultEngine (seeded from `seed`) and every layer's hooks start firing.
  // Empty (the default) means no faults and near-zero overhead.
  fault::FaultPlan fault_plan;
  // Device supervision (spv::recovery). Disabled by default: the paper's
  // attacks reproduce unhindered and the health scorer never joins the bus.
  recovery::RecoveryManager::Config recovery;
  // Device trust policy (spv::policy). Disabled by default: no bounce pool
  // is built, DmaApi routing stays a null check, and devices behave exactly
  // as before the engine existed. Enabled, every Add*Driver registration
  // consults the quirks table and untrusted devices run bounce-only.
  policy::PolicyEngine::Config policy;
  // DMA flight recorder + incident engine (spv::forensics). Disabled by
  // default: no recorder is built and every hook stays a one-branch null
  // check. Enabled, every IOMMU-boundary transaction and DMA mapping edge is
  // recorded, and detector firings freeze deterministic incident reports.
  forensics::ForensicsConfig forensics;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // Adds a NIC driver instance; attaches its device to the IOMMU and creates
  // the per-CPU page_frag pool backing its RX ring (§5.2.2).
  net::NicDriver& AddNicDriver(const net::NicDriver::Config& config);

  // Adds an NVMe block driver instance: attaches its device to the IOMMU,
  // ensures the per-CPU page_frag pool its PRP-list segments carve from, and
  // registers it with the recovery supervisor. The caller still constructs a
  // controller model and calls AttachDevice + Init (mirroring AddNicDriver,
  // where the device model is test-provided).
  nvme::NvmeDriver& AddNvmeDriver(const nvme::NvmeDriver::Config& config);

  // Switches the CPU the simulated kernel executes on (bounded by
  // config.iommu.fast_path.num_cpus). DMA map/unmap traffic issued after
  // this lands in that CPU's IOVA magazine caches; NIC drivers pin
  // themselves to their configured CPU on each ring operation.
  void set_current_cpu(CpuId cpu) { dma_->set_current_cpu(cpu); }
  CpuId current_cpu() const { return iommu_->current_cpu(); }

  uint32_t num_cpus() const { return config_.iommu.fast_path.num_cpus; }

  // Runs `fn(cpu)` for sim CPUs [0, cpus), one after another in CPU order on
  // the calling thread, so a run replays its seed byte for byte. The ambient
  // CPU is set for each body and restored to CPU 0 afterwards. `cpus` is
  // clamped to num_cpus(); 0 means all of them. All CPUs share one SimClock,
  // so elapsed sim time is the sum of the bodies, not their maximum.
  void RunOnCpus(uint32_t cpus, const std::function<void(CpuId)>& fn);

  // ---- Component access ------------------------------------------------------

  SimClock& clock() { return clock_; }
  Xoshiro256& rng() { return rng_; }
  mem::PhysicalMemory& pm() { return pm_; }
  mem::PageDb& page_db() { return page_db_; }
  mem::PageAllocator& page_alloc() { return *page_alloc_; }
  const mem::KernelLayout& layout() const { return layout_; }
  iommu::Iommu& iommu() { return *iommu_; }
  dma::DmaApi& dma() { return *dma_; }
  dma::KernelMemory& kmem() { return *kmem_; }
  slab::SlabAllocator& slab() { return *slab_; }
  net::SkbAllocator& skb_alloc() { return *skb_alloc_; }
  net::NetworkStack& stack() { return *stack_; }
  slab::PageFragPool& frag_pool(CpuId cpu);
  // The machine-wide event bus; every component publishes here.
  telemetry::Hub& telemetry() { return hub_; }
  // Span tracer; null unless config.trace.enabled.
  trace::Tracer* tracer() { return tracer_.get(); }
  // The machine-wide fault engine (armed iff config.fault_plan is non-empty).
  fault::FaultEngine& fault() { return fault_; }
  // Device supervision; present always, active iff config.recovery.enabled.
  recovery::RecoveryManager& recovery() { return *recovery_; }
  // Trust policy engine and its bounce pool; null unless config.policy.enabled.
  policy::PolicyEngine* policy() { return policy_.get(); }
  dma::BouncePool* bounce_pool() { return bounce_pool_.get(); }
  // The mapping-life ledger (lives, their windows, and with forensics the
  // flight rings); null unless a tracer is attached or forensics is on.
  forensics::FlightRecorder* flight_recorder() { return recorder_.get(); }
  // Incident engine; null unless config.forensics.enabled.
  forensics::IncidentEngine* incidents() { return incidents_.get(); }

  // Cross-layer consistency audit; call at teardown (or any quiescent point).
  // Verifies that (1) every tracked DMA mapping still translates page-by-page
  // to its buffer's physical pages, (2) every installed PTE lies inside a
  // live IOVA allocation (no leaked translations), (3) every stale IOTLB
  // entry is covered by a pending deferred invalidation (the legitimate
  // Fig 6 window, as opposed to a lost one), and (4) PageDb ownership agrees
  // with the page allocator's free count. Cross-CPU coverage: (5) the IOMMU's
  // flush queue and per-CPU magazines are internally consistent,
  // and (6) every NIC queue's posted RX / busy TX slots are backed by live
  // DMA mappings (NicDriver::AuditQueues). With the trust policy enabled,
  // (7) the bounce pool's slot accounting matches its active runs and its
  // static mappings still translate (BouncePool::Audit). (2), (3) and (5)
  // are one pass over the IOMMU (Iommu::Audit). Runs (1), the IOMMU pass,
  // (4), (6), (7) in that order. No-op when the IOMMU is disabled.
  Status CheckInvariants() const;

  const MachineConfig& config() const { return config_; }

 private:
  MachineConfig config_;
  SimClock clock_;
  telemetry::Hub hub_;  // before any component that publishes into it
  std::unique_ptr<trace::Tracer> tracer_;  // null when tracing is off
  std::unique_ptr<forensics::FlightRecorder> recorder_;  // sink on hub_ when present
  fault::FaultEngine fault_;  // before any component holding a hook into it
  Xoshiro256 rng_;
  mem::PhysicalMemory pm_;
  mem::PageDb page_db_;
  mem::KernelLayout layout_;
  std::unique_ptr<mem::PageAllocator> page_alloc_;
  std::unique_ptr<iommu::Iommu> iommu_;
  std::unique_ptr<dma::DmaApi> dma_;
  std::unique_ptr<dma::KernelMemory> kmem_;
  std::unique_ptr<slab::SlabAllocator> slab_;
  std::unique_ptr<net::SkbAllocator> skb_alloc_;
  std::unique_ptr<net::NetworkStack> stack_;
  std::unique_ptr<recovery::RecoveryManager> recovery_;
  std::unique_ptr<dma::BouncePool> bounce_pool_;   // before policy_ (used by it)
  std::unique_ptr<policy::PolicyEngine> policy_;
  // After policy_/recovery_: its snapshot providers capture those engines.
  std::unique_ptr<forensics::IncidentEngine> incidents_;
  std::vector<std::unique_ptr<slab::PageFragPool>> frag_pools_;
  std::vector<std::unique_ptr<net::NicDriver>> drivers_;
  std::vector<std::unique_ptr<nvme::NvmeDriver>> nvme_drivers_;
  uint32_t next_device_id_ = 1;
};

}  // namespace spv::core

#endif  // SPV_CORE_MACHINE_H_
