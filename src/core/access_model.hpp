// Pre-register-allocation access models.
//
// The paper's "more ambitious possibility ... would be to develop
// predictive analyses ... before register allocation and assignment"
// (Sec. 4). At that stage the physical register of each variable is
// unknown, so the analysis propagates, for every virtual register, a
// probability distribution over physical cells. These models encode what
// the compiler can plausibly assume about the downstream assignment stage;
// the accuracy they give up relative to the exact post-RA mode is one of
// the quantities bench_accuracy_vs_simulation measures.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ir/function.hpp"
#include "machine/assignment.hpp"
#include "machine/floorplan.hpp"

namespace tadfa::core {

/// Maps each virtual register to a probability distribution over physical
/// register cells (rows of the matrix sum to 1).
class AccessDistributionModel {
 public:
  virtual ~AccessDistributionModel() = default;
  virtual std::string name() const = 0;
  /// Distribution of virtual register `v` over the physical cells.
  virtual const std::vector<double>& distribution(ir::Reg v) const = 0;
};

/// Models a first-free downstream assignment: accesses concentrate on the
/// first `pressure` registers of the ordered list (the paper's "same small
/// set of registers is chosen again and again"). The estimated register
/// pressure comes from liveness.
class FirstFitPredictionModel final : public AccessDistributionModel {
 public:
  FirstFitPredictionModel(const ir::Function& func,
                          const machine::Floorplan& floorplan,
                          std::size_t estimated_pressure);
  std::string name() const override { return "predict_first_fit"; }
  const std::vector<double>& distribution(ir::Reg v) const override;

 private:
  std::vector<std::vector<double>> rows_;
};

/// Models a randomizing downstream assignment: uniform over the file.
class UniformPredictionModel final : public AccessDistributionModel {
 public:
  UniformPredictionModel(const ir::Function& func,
                         const machine::Floorplan& floorplan);
  std::string name() const override { return "predict_uniform"; }
  const std::vector<double>& distribution(ir::Reg v) const override;

 private:
  std::vector<double> uniform_;
  std::uint32_t reg_count_;
};

/// Exact post-RA "model": delta distribution at the assigned register.
/// Lets the DFA treat both modes uniformly.
class ExactAssignmentModel final : public AccessDistributionModel {
 public:
  ExactAssignmentModel(const ir::Function& func,
                       const machine::Floorplan& floorplan,
                       const machine::RegisterAssignment& assignment);
  std::string name() const override { return "exact"; }
  const std::vector<double>& distribution(ir::Reg v) const override;

 private:
  std::vector<std::vector<double>> rows_;
};

}  // namespace tadfa::core
