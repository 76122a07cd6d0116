/**
 * @file
 * Layer abstraction of the deep-learning substrate.
 *
 * Layers own their parameters and cache forward activations so that a
 * subsequent backward() can produce input gradients and accumulate
 * parameter gradients.  Models (src/models) compose layers manually —
 * there is no autograd graph; explicit composition keeps the two-branch
 * Adrias performance model (Fig. 11b) easy to follow and test.
 */

#ifndef ADRIAS_ML_LAYER_HH
#define ADRIAS_ML_LAYER_HH

#include <string>
#include <vector>

#include "ml/matrix.hh"

namespace adrias::ml
{

/** A trainable tensor with its gradient accumulator. */
struct Param
{
    std::string name;
    Matrix value;
    Matrix grad;

    Param(std::string name_, Matrix value_)
        : name(std::move(name_)), value(std::move(value_)),
          grad(value.rows(), value.cols())
    {
    }

    /** Zero the gradient accumulator. */
    void zeroGrad() { grad.setZero(); }
};

/**
 * Abstract differentiable transformation of a (batch x features)
 * activation matrix.
 */
class Layer
{
  public:
    virtual ~Layer() = default;

    /**
     * Compute outputs and cache whatever backward() needs.
     *
     * @param input (batch x in_features) activations.
     * @return (batch x out_features) activations.
     */
    virtual Matrix forward(const Matrix &input) = 0;

    /**
     * Back-propagate through the most recent forward().
     *
     * @param grad_output dLoss/dOutput, same shape as the last output.
     * @return dLoss/dInput, same shape as the last input.
     */
    virtual Matrix backward(const Matrix &grad_output) = 0;

    /** @return the layer's trainable parameters (may be empty). */
    virtual std::vector<Param *> params() { return {}; }

    /** Switch between training (dropout on, BN batch stats) and eval. */
    virtual void setTraining(bool training) { isTraining = training; }

    /**
     * Begin exact population-statistics re-estimation (BatchNorm).
     *
     * Between begin and end, forward passes (in training mode) should
     * accumulate population statistics; endStatsEstimation() then
     * replaces the running statistics with the exact population values.
     * No-op for stateless layers.
     */
    virtual void beginStatsEstimation() {}

    /** Finish population-statistics re-estimation. */
    virtual void endStatsEstimation() {}

    /**
     * Non-trainable state that must survive serialization (e.g.
     * BatchNorm running statistics).  Empty for stateless layers.
     */
    virtual std::vector<Matrix *> stateTensors() { return {}; }

    /** @return true while in training mode. */
    bool training() const { return isTraining; }

    /**
     * Inference fast-path toggle (DESIGN.md §11): when on, forward()
     * skips caching activations for backward() — outputs are bitwise
     * unchanged, but a subsequent backward() panics.  Deliberately
     * separate from setTraining(): eval-mode backward (e.g. gradient
     * checks through frozen normalization statistics) is a supported
     * combination, so skipping caches must be an explicit opt-in.
     */
    virtual void setInference(bool on) { isInference = on; }

    /** @return true while the inference fast-path is active. */
    bool inference() const { return isInference; }

    /**
     * The inference forward (DESIGN.md §11.3): replaces `activation`
     * with forward(activation), bit for bit, reusing its storage and
     * the layer's workspaces instead of allocating.  It caches nothing
     * for backward(), so it belongs to inference mode.  The default
     * runs forward() and moves the result in.
     */
    virtual void inferInPlace(Matrix &activation)
    {
        activation = forward(activation);
    }

  protected:
    bool isTraining = true;
    bool isInference = false;
};

} // namespace adrias::ml

#endif // ADRIAS_ML_LAYER_HH
