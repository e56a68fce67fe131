// Central calibration table for every hardware model constant.
//
// Each constant is anchored either to a number the paper measures directly
// (Tables 1-5 and the prose of §4) or to the published spec of the component
// (i960 RD, PCI 32/33, 100 Mbps Ethernet). EXPERIMENTS.md records how the
// reproduced tables land against the paper with these defaults.
//
// Experiments never hard-code model constants: they take a Calibration (or a
// piece of one), so ablations can sweep any of these.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace nistream::hw {

/// Per-operation integer/floating arithmetic costs, in CPU cycles.
struct ArithCosts {
  std::int64_t add;
  std::int64_t mul;
  std::int64_t div;
  std::int64_t cmp;
};

/// i960 RD native integer arithmetic (no FPU on this part).
/// i960 core: single-cycle ALU ops, multi-cycle multiply, long divide.
inline constexpr ArithCosts kI960IntCosts{/*add=*/1, /*mul=*/5, /*div=*/38,
                                          /*cmp=*/1};

/// VxWorks software floating-point library on i960 (per-call cost including
/// function-call overhead, unpack/repack). Calibrated so the software-FP
/// scheduler build is ~20 us per decision slower than the fixed-point build
/// at 66 MHz (paper §4.2: "The overhead of using the VxWorks software FP
/// library is around ~20 us").
inline constexpr ArithCosts kI960SoftFloatCosts{/*add=*/125, /*mul=*/155,
                                                /*div=*/250, /*cmp=*/92};

/// Host CPUs with hardware FPUs (UltraSPARC 300 MHz / Pentium Pro 200 MHz).
inline constexpr ArithCosts kHostFpuCosts{/*add=*/3, /*mul=*/5, /*div=*/20,
                                          /*cmp=*/3};

/// Host integer ALU (PPro/UltraSPARC: 1-cycle ALU, multi-cycle mul/div).
inline constexpr ArithCosts kHostIntCosts{/*add=*/1, /*mul=*/4, /*div=*/40,
                                          /*cmp=*/1};

/// Data-cache geometry + timing for one CPU.
struct CacheParams {
  std::uint32_t line_bytes = 32;
  std::uint32_t num_lines = 64;     // i960 RD: 2 KB direct-mapped d-cache
  std::int64_t hit_cycles = 1;
  std::int64_t miss_cycles = 20;    // external memory access on the card
};

struct CpuParams {
  double hz = 66e6;                 // i960 RD clock (paper §4)
  CacheParams dcache{};
  std::int64_t mmio_reg_cycles = 2; // "hardware queue" registers: on-chip,
                                    // "do not generate any external bus
                                    // cycles" (paper §4.2.1)
};

/// i960 RD I2O card processor.
inline constexpr CpuParams kI960Rd{
    .hz = 66e6,
    .dcache = CacheParams{.line_bytes = 32,
                          .num_lines = 64,
                          .hit_cycles = 1,
                          .miss_cycles = 20},
    .mmio_reg_cycles = 2,
};

/// One Pentium Pro 200 MHz host CPU. Larger cache, faster memory path.
inline constexpr CpuParams kPentiumPro200{
    .hz = 200e6,
    .dcache = CacheParams{.line_bytes = 32,
                          .num_lines = 256,   // 8 KB L1 d-cache
                          .hit_cycles = 1,
                          .miss_cycles = 30}, // deeper hierarchy
    .mmio_reg_cycles = 10,
};

/// UltraSPARC 300 MHz — the host the paper's earlier DWCS numbers (~50 us)
/// were measured on; used by the headline-overhead comparison bench.
inline constexpr CpuParams kUltraSparc300{
    .hz = 300e6,
    .dcache = CacheParams{.line_bytes = 32,
                          .num_lines = 512,   // 16 KB L1 d-cache
                          .hit_cycles = 1,
                          .miss_cycles = 35},
    .mmio_reg_cycles = 10,
};

struct PciParams {
  /// Effective sustained DMA bandwidth. Calibrated from Table 5: a 773665-
  /// byte MPEG file moves card-to-card in 11673.84 us => 66.27 MB/s (half of
  /// the 132 MB/s burst rate of PCI 32/33, as expected with arbitration and
  /// retry overhead).
  double dma_bytes_per_sec = 66.27e6;
  /// Per-DMA-transaction setup + arbitration.
  sim::Time dma_setup = sim::Time::us(0.4);
  /// Programmed-I/O word costs, Table 5: read 3.6 us, write 3.1 us.
  sim::Time pio_read = sim::Time::us(3.6);
  sim::Time pio_write = sim::Time::us(3.1);
};
inline const PciParams kPci33{};

struct EthernetParams {
  double bits_per_sec = 100e6;       // 100 Mbps links on the i960 RD card
  std::uint32_t overhead_bytes = 38; // preamble + header + FCS + IFG
  sim::Time switch_latency = sim::Time::us(10);  // store-and-forward cut
  /// One-way protocol-stack traversal cost per endpoint. Calibrated so a
  /// 1000-byte frame sees ~1.2 ms end to end (Table 4 "1.2net": stacks at
  /// both ends + wire time).
  sim::Time stack_traversal = sim::Time::us(555);
};
inline constexpr EthernetParams kFastEthernet{};

struct DiskParams {
  /// Calibrated so a random 1000-byte frame read averages ~4.2 ms (Table 4
  /// "4.2disk"): 0.3 overhead + 0.8 short seek + 3.0 mean rotational delay
  /// (10k rpm => 6 ms/rev) + 0.1 transfer.
  sim::Time request_overhead = sim::Time::ms(0.3);
  sim::Time avg_seek = sim::Time::ms(0.8);
  sim::Time full_rotation = sim::Time::ms(6.0);  // 10k-rpm-class SCSI drive
  double bytes_per_sec = 10e6;
  /// Sequential reads within this distance of the previous access skip the
  /// seek (track buffer / same-cylinder).
  std::uint64_t sequential_window = 64 * 1024;
};
inline const DiskParams kScsiDisk{};

struct FilesystemParams {
  /// Solaris UFS: 8 KB logical blocks, buffer cache, read-ahead
  /// (Table 4 Expt I measures ~1 ms per 1000-byte frame through UFS).
  std::uint32_t ufs_block_bytes = 8192;
  sim::Time ufs_per_call_overhead = sim::Time::us(80);
  bool ufs_readahead = true;
  /// VxWorks dosFs mounted on Solaris: no block cache, FAT chain lookups —
  /// ~8 ms per 1000-byte frame (Table 4 Expt I, "8(VxWorks)").
  std::uint32_t dosfs_block_bytes = 512;
  /// FAT cluster-chain walk per read: dosFs re-seeks into the chain on
  /// every call, walking sector-resident FAT entries (calibrated to the
  /// Table 4 "8(VxWorks)" cell against the file sizes used there).
  sim::Time dosfs_fat_lookup = sim::Time::ms(2.6);
  sim::Time dosfs_per_call_overhead = sim::Time::us(100);
};
inline const FilesystemParams kFilesystems{};

struct I2oParams {
  /// Posting a message frame address to a card FIFO is one PIO write; the
  /// doorbell interrupt and message fetch on the card side cost a few
  /// microseconds of NI CPU time.
  std::int64_t message_frame_words = 16;
  sim::Time doorbell_latency = sim::Time::us(2);
};
inline const I2oParams kI2o{};

struct HostOsParams {
  sim::Time context_switch = sim::Time::us(12);  // deep cache hierarchy cost
  /// Solaris TS gives CPU-bound processes long quanta (20..200 ms depending
  /// on priority). This is the key term behind Figures 7-8: a media
  /// scheduler that wakes at a frame deadline can sit behind a web-server
  /// burst for most of a quantum before it runs.
  sim::Time quantum = sim::Time::ms(80);
  sim::Time tick = sim::Time::ms(10);
};
inline const HostOsParams kSolarisX86{};

struct RtosParams {
  sim::Time context_switch = sim::Time::us(4);  // VxWorks on i960: light
  sim::Time tick = sim::Time::ms(1);            // 1 kHz aux clock
};
inline const RtosParams kVxWorks{};

/// Multi-core NI topology (The Distributed Network Processor, PAPERS.md):
/// N scheduling cores on one board, linked by an on-chip interconnect. The
/// paper's i960 RD is the cores=1 degenerate case — the default, so every
/// existing single-core experiment is untouched.
struct InterconnectParams {
  /// Scheduling cores per NI board. The wind kernel schedules tasks across
  /// all of them; dwcs::ShardCycleMeter prices each core's heap accesses
  /// against its own d-cache.
  int cores = 1;
  /// Fixed latency of shipping a per-core winner update to the root arbiter
  /// over the on-chip hop, in cycles of the NI clock. Default 0: decision-
  /// identity runs charge nothing the single-core model would not (see
  /// dwcs::HierarchicalParams::hop_cycles, which this value seeds).
  std::int64_t core_hop_cycles = 0;
};
inline constexpr InterconnectParams kSingleCoreNi{};

/// Everything at once; the default machine the experiments construct.
struct Calibration {
  CpuParams ni_cpu = kI960Rd;
  CpuParams host_cpu = kPentiumPro200;
  ArithCosts ni_int = kI960IntCosts;
  ArithCosts ni_softfp = kI960SoftFloatCosts;
  ArithCosts host_int = kHostIntCosts;
  ArithCosts host_fpu = kHostFpuCosts;
  PciParams pci = kPci33;
  EthernetParams ethernet = kFastEthernet;
  DiskParams disk = kScsiDisk;
  FilesystemParams fs = kFilesystems;
  I2oParams i2o = kI2o;
  HostOsParams host_os = kSolarisX86;
  RtosParams rtos = kVxWorks;
  InterconnectParams interconnect = kSingleCoreNi;
};

}  // namespace nistream::hw
