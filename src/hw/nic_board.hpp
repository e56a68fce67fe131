// The i960 RD I2O network-interface board, assembled from its parts.
//
// Per the paper (§1, §4.2.2): an i960 RD CPU at 66 MHz, 4 MB of on-board
// memory (expandable to 36 MB), two 100 Mbps Ethernet ports, two SCSI ports
// with directly attached disks and the I2O inbound/outbound message FIFOs.
// The board plugs into a PCI segment and an Ethernet switch.
#pragma once

#include <algorithm>
#include <array>
#include <memory>
#include <string>

#include "fault/board_health.hpp"
#include "hw/calibration.hpp"
#include "hw/cpu.hpp"
#include "hw/ethernet.hpp"
#include "hw/i2o.hpp"
#include "hw/memory.hpp"
#include "hw/pci.hpp"
#include "hw/scsi_disk.hpp"

namespace nistream::hw {

class NicBoard {
 public:
  static constexpr std::uint64_t kDefaultMemBytes = 4ull * 1024 * 1024;

  /// `rx` is invoked when an Ethernet frame addressed to this board arrives.
  NicBoard(std::string name, sim::Engine& engine, PciBus& bus,
           EthernetSwitch& ether, EthernetSwitch::Receiver rx,
           const Calibration& cal = {},
           std::uint64_t mem_bytes = kDefaultMemBytes)
      : name_{std::move(name)},
        engine_{engine},
        bus_{bus},
        ether_{ether},
        cpu_{cal.ni_cpu},
        num_cores_{std::max(cal.interconnect.cores, 1)},
        memory_{mem_bytes},
        i2o_{engine, bus, cal.i2o} {
    eth_ports_[0] = ether.add_port(rx);
    eth_ports_[1] = ether.add_port(rx);
    disks_[0] = std::make_unique<ScsiDisk>(engine, cal.disk, /*seed=*/1001);
    disks_[1] = std::make_unique<ScsiDisk>(engine, cal.disk, /*seed=*/1002);
  }

  NicBoard(const NicBoard&) = delete;
  NicBoard& operator=(const NicBoard&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] PciBus& bus() { return bus_; }
  [[nodiscard]] EthernetSwitch& ether() { return ether_; }
  [[nodiscard]] CpuModel& cpu() { return cpu_; }
  /// Scheduling cores on this board (>= 1). cpu() is core 0 — every
  /// single-core consumer keeps working unchanged; the sharded scheduler
  /// model pins one DWCS shard per core.
  [[nodiscard]] int num_cores() const { return num_cores_; }
  [[nodiscard]] MemoryPool& memory() { return memory_; }
  [[nodiscard]] I2oChannel& i2o() { return i2o_; }
  [[nodiscard]] int eth_port(int i) const { return eth_ports_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] ScsiDisk& disk(int i) { return *disks_.at(static_cast<std::size_t>(i)); }

  /// Attach a health state machine (nullptr detaches; healthy when absent).
  /// Firmware layers stacked on this board (DVCM runtime, stream service)
  /// consult it to stall or wipe on crash/hang.
  void set_health(fault::BoardHealth* h) { health_ = h; }
  [[nodiscard]] fault::BoardHealth* health() { return health_; }
  [[nodiscard]] bool alive() const {
    return health_ == nullptr || health_->alive();
  }

 private:
  std::string name_;
  sim::Engine& engine_;
  PciBus& bus_;
  EthernetSwitch& ether_;
  CpuModel cpu_;
  int num_cores_;
  MemoryPool memory_;
  I2oChannel i2o_;
  std::array<int, 2> eth_ports_{};
  std::array<std::unique_ptr<ScsiDisk>, 2> disks_{};
  fault::BoardHealth* health_ = nullptr;
};

}  // namespace nistream::hw
