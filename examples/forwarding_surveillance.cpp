// Forward Thinking demo (§5.5): privilege escalation via GRO-forwarded
// packets, then the persistent-surveillance variant — reading an arbitrary
// physical page by planting a forged frag in a forwarded packet.
//
//   $ ./build/examples/forwarding_surveillance

#include <cstdio>
#include <cstring>

#include "attack/attacks.h"
#include "attack/mini_cpu.h"
#include "core/machine.h"
#include "device/malicious_nic.h"

using namespace spv;
using attack::ForwardThinkingAttack;

int main() {
  std::printf("== Forward Thinking compound attack (paper §5.5) ==\n\n");

  core::MachineConfig config;
  config.seed = 55;
  config.iommu.mode = iommu::InvalidationMode::kDeferred;
  config.net.forwarding_enabled = true;  // the victim is a router / LB
  core::Machine machine{config};

  (void)attack::SeedResidualKernelData(machine, 128);

  net::NicDriver::Config driver_config;
  driver_config.name = "fwd_nic";
  driver_config.rx_ring_size = 32;
  driver_config.rx_buf_len = 1728;
  net::NicDriver& nic = machine.AddNicDriver(driver_config);
  device::MaliciousNic device{device::DevicePort{machine.iommu(), nic.device_id()}};
  device.set_warm_iotlb_on_post(true);
  nic.AttachDevice(&device);
  machine.stack().set_egress(&nic);
  attack::MiniCpu cpu{machine.kmem(), machine.layout()};
  machine.stack().set_callback_invoker(&cpu);
  (void)nic.FillRxRing();

  attack::AttackEnv env{machine, nic, device, cpu};

  // ---- Code-injection variant ---------------------------------------------------
  auto report = ForwardThinkingAttack::Run(env);
  if (!report.ok()) {
    std::printf("harness error: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("attack transcript:\n");
  for (const std::string& step : report->steps) {
    std::printf("  - %s\n", step.c_str());
  }
  std::printf("RESULT: %s\n\n",
              report->success ? ">>> privilege escalation via forwarded GRO packet <<<"
                              : "attack failed");

  // ---- Surveillance variant ------------------------------------------------------
  std::printf("surveillance variant: exfiltrating a kernel secret by forged frag...\n");
  Kva secret_buf = *machine.slab().Kmalloc(64, "wireguard_private_key");
  const char secret[] = "wg-priv-key:3f9a...";
  (void)machine.kmem().Write(
      secret_buf, std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(secret),
                                           sizeof(secret)));
  auto phys = machine.layout().DirectMapKvaToPhys(secret_buf);
  std::printf("  victim: secret lives at PFN %llu offset %llu (device has NO mapping)\n",
              static_cast<unsigned long long>(phys->pfn().value),
              static_cast<unsigned long long>(phys->page_offset()));

  auto leaked = ForwardThinkingAttack::SurveillanceRead(
      env, report->kaslr, phys->pfn().value, static_cast<uint32_t>(phys->page_offset()),
      sizeof(secret), 0x0a000099);
  if (!leaked.ok()) {
    std::printf("  surveillance read failed: %s\n", leaked.status().ToString().c_str());
    return 1;
  }
  std::printf("  device: leaked %zu bytes: \"%s\"\n", leaked->size(),
              reinterpret_cast<const char*>(leaked->data()));
  std::printf("  (the driver mapped the forged frag for READ and the packet left "
              "no trace: shared_info was restored before TX completion)\n");
  return 0;
}
