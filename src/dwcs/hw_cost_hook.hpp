// Bridge from the scheduler's cost instrumentation to a hardware CPU model.
//
// Maps every dwcs::CostHook callback onto hw::CpuModel charges under a chosen
// arithmetic cost table. This is the glue that makes Tables 1-3 measurable:
// the real DWCS code runs, and the target processor's cycle counter advances
// as if it had executed there. The DVCM scheduler extension also uses it so
// the NI scheduler task's CPU consumption in Figures 9-10 comes from the
// same calibrated model as the microbenchmarks.
#pragma once

#include "dwcs/cost.hpp"
#include "hw/calibration.hpp"
#include "hw/cpu.hpp"

namespace nistream::dwcs {

class CpuModelCostHook final : public CostHook {
 public:
  /// `int_costs` price the integer/fixed-point path; `float_costs` price the
  /// floating-point path (software-emulated or FPU, per the target machine).
  CpuModelCostHook(hw::CpuModel& cpu, const hw::ArithCosts& int_costs,
                   const hw::ArithCosts& float_costs)
      : cpu_{&cpu}, int_costs_{int_costs}, float_costs_{float_costs} {}

  void arith_int(Op op, int n) override {
    cpu_->charge_arith(int_costs_, convert(op), n);
  }
  void arith_float(Op op, int n) override {
    cpu_->charge_arith(float_costs_, convert(op), n);
  }
  void mem(SimAddr addr) override { cpu_->mem_access(addr); }
  void reg() override { cpu_->reg_access(); }
  void cycles(std::int64_t n) override { cpu_->charge(n); }

 private:
  static hw::ArithOp convert(Op op) {
    switch (op) {
      case Op::kAdd: return hw::ArithOp::kAdd;
      case Op::kMul: return hw::ArithOp::kMul;
      case Op::kDiv: return hw::ArithOp::kDiv;
      case Op::kCmp: return hw::ArithOp::kCmp;
    }
    return hw::ArithOp::kAdd;
  }

  hw::CpuModel* cpu_;
  hw::ArithCosts int_costs_;
  hw::ArithCosts float_costs_;
};

}  // namespace nistream::dwcs
