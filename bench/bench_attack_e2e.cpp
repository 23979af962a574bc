// §6: end-to-end attack demonstration summary — all three compound attacks
// against the same victim profile (28-core-server scale-down), with the JOP
// %rsp = %rdi + const pivot located like ROPgadget would.

#include <cstdio>

#include "attack/attacks.h"
#include "attack/mini_cpu.h"
#include "core/machine.h"
#include "device/malicious_nic.h"
#include "mem/kernel_symbols.h"

using namespace spv;

namespace {

struct Rig {
  Rig(uint64_t seed, bool forwarding)
      : machine(MakeConfig(seed, forwarding)), nic(AddNic(machine)) {
    device = std::make_unique<device::MaliciousNic>(
        device::DevicePort{machine.iommu(), nic.device_id()});
    device->set_warm_iotlb_on_post(true);
    nic.AttachDevice(device.get());
    machine.stack().set_egress(&nic);
    cpu = std::make_unique<attack::MiniCpu>(machine.kmem(), machine.layout());
    machine.stack().set_callback_invoker(cpu.get());
  }

  static core::MachineConfig MakeConfig(uint64_t seed, bool forwarding) {
    core::MachineConfig config;
    config.seed = seed;
    config.iommu.mode = iommu::InvalidationMode::kDeferred;
    config.net.forwarding_enabled = forwarding;
    return config;
  }
  static net::NicDriver& AddNic(core::Machine& machine) {
    net::NicDriver::Config config;
    config.name = "bcm5720";
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
  std::printf("== §6: compound attack demonstrations (Dell R730 scale-down) ==\n\n");
  std::printf("JOP pivot gadget (ROPgadget-located): image offset 0x%llx — "
              "\"rsp = rdi + 0x%llx; jmp\"\n\n",
              static_cast<unsigned long long>(mem::kSymJopStackPivot),
              static_cast<unsigned long long>(mem::kSymJopPivotConst));

  // RingFlood.
  {
    attack::RingFloodAttack::ProfileOptions profile;
    profile.machine = Rig::MakeConfig(0, false);
    net::NicDriver::Config driver_config;
    driver_config.rx_ring_size = 32;
    driver_config.rx_buf_len = 1728;
    profile.driver = driver_config;
    profile.boots = 32;
    auto histogram = attack::RingFloodAttack::ProfileRxPfns(profile);
    Rig rig{profile.base_seed + 777, false};
    attack::RingFloodAttack::ReplayBootNoise(rig.machine, rig.machine.config().seed,
                                             profile.boot_noise_allocs);
    (void)rig.nic.FillRxRing();
    attack::RingFloodAttack::Options options;
    options.pfn_guess = attack::RingFloodAttack::MostCommonPfn(histogram);
    auto report = attack::RingFloodAttack::Run(rig.env(), options);
    std::printf("RingFlood (§5.3):        %s  [window: %s]\n",
                report.ok() && report->success ? "ESCALATED" : "failed",
                report.ok() ? report->window_path.c_str() : "-");
  }

  // Poisoned TX.
  {
    Rig rig{42, false};
    (void)rig.machine.stack().CreateSocket(7, true);
    (void)rig.nic.FillRxRing();
    auto report = attack::PoisonedTxAttack::Run(rig.env(), {});
    std::printf("Poisoned TX (§5.4):      %s  [window: %s]\n",
                report.ok() && report->success ? "ESCALATED" : "failed",
                report.ok() ? report->window_path.c_str() : "-");
  }

  // Forward Thinking.
  {
    Rig rig{61, true};
    (void)attack::SeedResidualKernelData(rig.machine, 128);
    (void)rig.nic.FillRxRing();
    auto report = attack::ForwardThinkingAttack::Run(rig.env());
    std::printf("Forward Thinking (§5.5): %s  [window: %s]\n",
                report.ok() && report->success ? "ESCALATED" : "failed",
                report.ok() ? report->window_path.c_str() : "-");
  }

  std::printf("\nall three attacks obtain the §3.3 attribute trifecta and execute the\n"
              "same payload: JOP pivot -> ROP stack -> prepare_kernel_cred ->\n"
              "commit_creds, exactly the §6 demonstration.\n");
  return 0;
}
