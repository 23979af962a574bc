#include "core/machine.h"

#include <cassert>
#include <string>

#include "base/json.h"

namespace spv::core {

namespace {

// Pages reserved for the kernel image at the bottom of RAM.
constexpr uint64_t kKernelImagePages = 1024;

mem::KernelLayout MakeLayout(const MachineConfig& config, Xoshiro256& rng) {
  return mem::KernelLayout::Create(config.phys_pages, config.kaslr, rng);
}

}  // namespace

Machine::Machine(const MachineConfig& config)
    : config_(config),
      hub_(config.telemetry),
      rng_(config.seed),
      pm_(config.phys_pages),
      page_db_(config.phys_pages),
      layout_(MakeLayout(config, rng_)) {
  assert(kKernelImagePages < config.phys_pages);
  hub_.BindClock(&clock_);
  if (config.trace.enabled) {
    tracer_ = std::make_unique<trace::Tracer>(hub_, clock_);
  }
  if (tracer_ != nullptr || config.forensics.enabled) {
    // The one ledger of mapping lives: windows for the tracer, evidence for
    // the incident engine. It keeps one flight ring per sim CPU per device
    // (incident documents list them), and never advances the clock (the
    // bench gate depends on that).
    const uint32_t cpus = num_cpus() == 0 ? 1 : num_cpus();
    recorder_ = std::make_unique<forensics::FlightRecorder>(&clock_, config.forensics, cpus,
                                                            config.iommu.enabled);
    recorder_->set_tracer(tracer_.get());
    hub_.AddSink(recorder_.get());
  }
  // Everything below advances the logical clock (allocator + subsystem
  // bring-up); attribute it to a boot span so a traced run starts at ~100%
  // cycle coverage instead of leaking construction time.
  trace::ScopedSpan boot_span{tracer_.get(), "machine.boot"};
  if (config.randomize_struct_layout) {
    // Shuffle destructor_arg among the unused pointer-sized slots (8: the
    // frag_list slot, 16: hwtstamps, 32: the compile-time position). Slot 24
    // is excluded: tskey/dataref live there.
    const uint64_t candidates[] = {8, 16, 32};
    layout_.set_shinfo_destructor_offset(candidates[rng_.NextBelow(3)]);
  }
  // Reserve the kernel image at the bottom of RAM.
  for (uint64_t pfn = 0; pfn < kKernelImagePages; ++pfn) {
    page_db_.set_owner(Pfn{pfn}, mem::PageOwner::kKernelImage);
  }
  page_alloc_ = std::make_unique<mem::PageAllocator>(
      page_db_, Pfn{kKernelImagePages}, config.phys_pages - kKernelImagePages);
  iommu_ = std::make_unique<iommu::Iommu>(pm_, clock_, config.iommu);
  iommu_->set_telemetry(&hub_);
  iommu_->set_tracer(tracer_.get());
  iommu_->set_flight_recorder(recorder_.get());
  dma_ = std::make_unique<dma::DmaApi>(*iommu_, layout_, &hub_);
  dma_->set_tracer(tracer_.get());
  dma_->set_flight_recorder(recorder_.get());
  if (config.forensics.enabled) {
    incidents_ = std::make_unique<forensics::IncidentEngine>(hub_, *recorder_, &clock_);
    hub_.AddSink(incidents_.get());
  }
  kmem_ = std::make_unique<dma::KernelMemory>(pm_, layout_, *dma_);
  slab_ = std::make_unique<slab::SlabAllocator>(pm_, page_db_, *page_alloc_, layout_, &hub_);
  skb_alloc_ = std::make_unique<net::SkbAllocator>(*kmem_, *slab_);
  stack_ = std::make_unique<net::NetworkStack>(*kmem_, *slab_, *skb_alloc_, config.net);
  stack_->set_tracer(tracer_.get());
  recovery_ = std::make_unique<recovery::RecoveryManager>(*iommu_, *dma_, clock_, hub_,
                                                          config.recovery);
  recovery_->set_tracer(tracer_.get());
  if (config.policy.enabled) {
    // Trust policy: the bounce pool takes its pages from the same allocator
    // as everything else, and DmaApi consults the engine per map.
    bounce_pool_ = std::make_unique<dma::BouncePool>(*iommu_, layout_, pm_, *page_alloc_,
                                                     clock_, &hub_);
    policy_ = std::make_unique<policy::PolicyEngine>(*iommu_, *bounce_pool_, clock_, hub_,
                                                     config.policy);
    policy_->set_recovery(recovery_.get());
    dma_->set_policy(policy_.get(), bounce_pool_.get());
  }
  if (incidents_ != nullptr) {
    // Forensics never links policy/recovery; their per-device state reaches
    // incident reports through these snapshot lambdas instead.
    recovery::RecoveryManager* recovery = recovery_.get();
    incidents_->set_recovery_provider([recovery](uint32_t device) {
      const auto status = recovery->device_status(DeviceId{device});
      json::Writer w;
      w.BeginObject().Key("state").String(recovery::DeviceStateName(status.state));
      w.Key("reattach_attempts").Uint(status.reattach_attempts);
      return w.Key("quarantines").Uint(status.quarantines).EndObject().Take();
    });
    if (policy_ != nullptr) {
      policy::PolicyEngine* policy = policy_.get();
      incidents_->set_trust_provider([policy](uint32_t device) {
        const auto status = policy->device_status(DeviceId{device});
        json::Writer w;
        w.BeginObject().Key("trust").String(policy::TrustStateName(status.trust));
        w.Key("demotions").Uint(status.demotions).Key("promotions").Uint(status.promotions);
        return w.EndObject().Take();
      });
    }
  }
  // Fault hooks are wired unconditionally — an unarmed engine short-circuits
  // at every guard — and armed only when the config carries a plan.
  fault_.set_telemetry(&hub_);
  if (!config.fault_plan.empty()) {
    fault_.Arm(config.fault_plan, config.seed);
  }
  page_alloc_->set_fault_engine(&fault_);
  iommu_->set_fault_engine(&fault_);
  slab_->set_fault_engine(&fault_);
}

void Machine::RunOnCpus(uint32_t cpus, const std::function<void(CpuId)>& fn) {
  const uint32_t limit = num_cpus() == 0 ? 1 : num_cpus();
  if (cpus == 0 || cpus > limit) {
    cpus = limit;
  }
  for (uint32_t c = 0; c < cpus; ++c) {
    SetCurrentCpu(CpuId{c});
    fn(CpuId{c});
  }
  SetCurrentCpu(CpuId{0});
}

slab::PageFragPool& Machine::frag_pool(CpuId cpu) {
  while (frag_pools_.size() <= cpu.value) {
    const CpuId new_cpu{static_cast<uint32_t>(frag_pools_.size())};
    frag_pools_.push_back(std::make_unique<slab::PageFragPool>(
        page_db_, *page_alloc_, layout_, new_cpu, slab::PageFragPool::kDefaultRegionBytes,
        &hub_));
    frag_pools_.back()->set_fault_engine(&fault_);
    skb_alloc_->RegisterFragPool(new_cpu, frag_pools_.back().get());
  }
  return *frag_pools_[cpu.value];
}

net::NicDriver& Machine::AddNicDriver(const net::NicDriver::Config& config) {
  const DeviceId device{next_device_id_++};
  iommu_->AttachDevice(device);
  frag_pool(config.cpu);  // ensure the per-CPU pool exists and is registered
  drivers_.push_back(std::make_unique<net::NicDriver>(device, *dma_, *kmem_, *skb_alloc_,
                                                      clock_, config));
  net::NicDriver& driver = *drivers_.back();
  // Multi-queue: every queue's CPU needs its pool registered now; the
  // driver's refill path looks it up and never creates one.
  for (uint32_t q = 0; q < driver.num_queues(); ++q) {
    frag_pool(driver.queue_cpu(q));
  }
  driver.set_fault_engine(&fault_);
  driver.set_tracer(tracer_.get());
  recovery_->RegisterDevice(device, &driver);
  if (policy_ != nullptr) {
    // Pool attach can only fail on physical-memory exhaustion at bring-up;
    // the device then simply stays outside the policy (never bounced).
    (void)policy_->RegisterDevice(device, policy::DeviceIdentity{config.name, "nic"},
                                  &driver);
  }
  return driver;
}

nvme::NvmeDriver& Machine::AddNvmeDriver(const nvme::NvmeDriver::Config& config) {
  const DeviceId device{next_device_id_++};
  iommu_->AttachDevice(device);
  slab::PageFragPool& pool = frag_pool(config.cpu);
  nvme_drivers_.push_back(std::make_unique<nvme::NvmeDriver>(
      device, *dma_, *kmem_, *slab_, &pool, clock_, config));
  nvme_drivers_.back()->set_fault_engine(&fault_);
  nvme_drivers_.back()->set_tracer(tracer_.get());
  recovery_->RegisterDevice(device, nvme_drivers_.back().get());
  if (policy_ != nullptr) {
    (void)policy_->RegisterDevice(device, policy::DeviceIdentity{config.name, "nvme"},
                                  nvme_drivers_.back().get());
  }
  return *nvme_drivers_.back();
}

Status Machine::CheckInvariants() const {
  if (!config_.iommu.enabled) {
    return OkStatus();  // no translation structures to audit
  }

  // (1) Every tracked DMA mapping still translates page-by-page to the
  // physical pages behind its KVA buffer.
  Status failure = OkStatus();
  dma_->ForEachMapping([&](const dma::DmaMapping& mapping) {
    if (!failure.ok()) {
      return;
    }
    Result<PhysAddr> phys = layout_.DirectMapKvaToPhys(mapping.kva);
    if (!phys.ok()) {
      failure = Internal("invariant: tracked mapping KVA outside the direct map (site " +
                         mapping.site + ")");
      return;
    }
    const Iova base = mapping.iova.PageBase();
    for (uint64_t i = 0; i < mapping.pages(); ++i) {
      std::optional<iommu::PteEntry> pte =
          iommu_->Peek(mapping.device, Iova{base.value + (i << kPageShift)});
      if (!pte.has_value() || pte->pfn.value != phys->pfn().value + i) {
        failure = Internal("invariant: tracked mapping does not translate (device " +
                           std::to_string(mapping.device.value) + ", site " + mapping.site +
                           ", page " + std::to_string(i) + ")");
        return;
      }
    }
  });
  SPV_RETURN_IF_ERROR(failure);

  // (2) Containment, (3) stale-IOTLB coverage and (5) cross-CPU flush-queue
  // and magazine state: one pass over the IOMMU's translation domains.
  SPV_RETURN_IF_ERROR(iommu_->Audit());

  // (4) Page accounting: PageDb ownership agrees with the buddy allocator.
  const uint64_t db_free = page_db_.CountOwned(mem::PageOwner::kFree);
  if (db_free != page_alloc_->free_pages()) {
    return Internal("invariant: PageDb counts " + std::to_string(db_free) +
                    " free pages but the allocator reports " +
                    std::to_string(page_alloc_->free_pages()));
  }

  // (6) Per-queue NIC ring accounting against the DMA tracker.
  for (const auto& driver : drivers_) {
    SPV_RETURN_IF_ERROR(driver->AuditQueues());
  }

  // (7) Bounce-pool accounting: slot in-use bits match active runs, runs are
  // disjoint and contained, and the pool's static mappings still translate.
  if (bounce_pool_ != nullptr) {
    SPV_RETURN_IF_ERROR(bounce_pool_->Audit());
  }
  return OkStatus();
}

}  // namespace spv::core
