/**
 * @file
 * Gradient-descent optimizer (Adam).
 */

#ifndef ADRIAS_ML_OPTIMIZER_HH
#define ADRIAS_ML_OPTIMIZER_HH

#include <vector>

#include "ml/layer.hh"

namespace adrias::ml
{

/** Adam optimizer with bias correction (Kingma & Ba, 2015). */
class Adam
{
  public:
    /** @param parameters the set of tensors this optimizer steps. */
    Adam(std::vector<Param *> parameters, double learning_rate = 1e-3,
         double beta1 = 0.9, double beta2 = 0.999, double epsilon = 1e-8);

    /** Apply one update from accumulated gradients. */
    void step();

    /** Zero every parameter's gradient accumulator. */
    void zeroGrad();

    /**
     * Scale gradients so their global L2 norm is at most @p max_norm.
     * @return the pre-clip norm.
     */
    double clipGradNorm(double max_norm);

  private:
    std::vector<Param *> params;
    double lr;
    double beta1;
    double beta2;
    double epsilon;
    std::size_t t = 0;
    std::vector<Matrix> m; ///< first-moment estimates
    std::vector<Matrix> v; ///< second-moment estimates
};

} // namespace adrias::ml

#endif // ADRIAS_ML_OPTIMIZER_HH
