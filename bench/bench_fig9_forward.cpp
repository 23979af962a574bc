// Figure 9 / §5.5: Forward Thinking — GRO-forwarded packets leak the KVA;
// plus the surveillance primitive's arbitrary-page read throughput.

#include <cstdio>
#include <cstring>

#include "attack/attacks.h"
#include "attack/mini_cpu.h"
#include "core/machine.h"
#include "device/malicious_nic.h"

using namespace spv;

namespace {

struct Rig {
  explicit Rig(uint64_t seed) : machine(MakeConfig(seed)), nic(AddNic(machine)) {
    device = std::make_unique<device::MaliciousNic>(
        device::DevicePort{machine.iommu(), nic.device_id()});
    device->set_warm_iotlb_on_post(true);
    nic.AttachDevice(device.get());
    machine.stack().set_egress(&nic);
    cpu = std::make_unique<attack::MiniCpu>(machine.kmem(), machine.layout());
    machine.stack().set_callback_invoker(cpu.get());
    (void)attack::SeedResidualKernelData(machine, 128);
    (void)nic.FillRxRing();
  }

  static core::MachineConfig MakeConfig(uint64_t seed) {
    core::MachineConfig config;
    config.seed = seed;
    config.iommu.mode = iommu::InvalidationMode::kDeferred;
    config.net.forwarding_enabled = true;
    return config;
  }
  static net::NicDriver& AddNic(core::Machine& machine) {
    net::NicDriver::Config config;
    config.rx_ring_size = 32;
    config.rx_buf_len = 1728;
    return machine.AddNicDriver(config);
  }

  attack::AttackEnv env() { return attack::AttackEnv{machine, nic, *device, *cpu}; }

  core::Machine machine;
  net::NicDriver& nic;
  std::unique_ptr<device::MaliciousNic> device;
  std::unique_ptr<attack::MiniCpu> cpu;
};

}  // namespace

int main() {
  std::printf("== Figure 9 / §5.5: Forward Thinking compound attack ==\n\n");

  // ---- Code injection success rate ------------------------------------------
  constexpr int kTrials = 10;
  int wins = 0;
  int kaslr_complete = 0;
  for (int t = 0; t < kTrials; ++t) {
    Rig rig{9000 + static_cast<uint64_t>(t)};
    auto report = attack::ForwardThinkingAttack::Run(rig.env());
    if (report.ok()) {
      wins += report->success ? 1 : 0;
      kaslr_complete += report->kaslr.complete() ? 1 : 0;
    }
  }
  std::printf("code injection via forwarded GRO packet: %d/%d successful\n", wins, kTrials);
  std::printf("KASLR fully broken from forwarded traffic: %d/%d\n\n", kaslr_complete, kTrials);

  // ---- Surveillance: arbitrary-page reads -------------------------------------
  Rig rig{9999};
  auto bootstrap = attack::ForwardThinkingAttack::Run(rig.env());
  if (!bootstrap.ok() || !bootstrap->kaslr.vmemmap_base.has_value()) {
    std::printf("surveillance bootstrap failed\n");
    return 1;
  }
  // Plant distinct secrets on several kernel pages and read them all back.
  int exfiltrated = 0;
  constexpr int kPages = 8;
  for (int i = 0; i < kPages; ++i) {
    Kva secret = *rig.machine.slab().Kmalloc(64, "session_key");
    char text[32];
    std::snprintf(text, sizeof(text), "secret-%d", i);
    (void)rig.machine.kmem().Write(
        secret, std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(text),
                                         sizeof(text)));
    auto phys = rig.machine.layout().DirectMapKvaToPhys(secret);
    auto leaked = attack::ForwardThinkingAttack::SurveillanceRead(
        rig.env(), bootstrap->kaslr, phys->pfn().value,
        static_cast<uint32_t>(phys->page_offset()), sizeof(text), 0x0a000099);
    if (leaked.ok() && std::memcmp(leaked->data(), text, sizeof(text)) == 0) {
      ++exfiltrated;
    }
  }
  std::printf("surveillance reads (one forwarded UDP packet each): %d/%d pages "
              "exfiltrated, shared_info restored every time\n",
              exfiltrated, kPages);
  std::printf("\nshape check vs paper: forwarding turns the NIC into an arbitrary\n"
              "physical-memory reader — 'the driver maps these pages, providing READ\n"
              "access to the NIC for any page in the system'.\n");
  return 0;
}
