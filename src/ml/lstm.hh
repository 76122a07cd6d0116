/**
 * @file
 * Long Short-Term Memory layer with full backpropagation through time.
 *
 * The Adrias Predictor (paper §V-B) stacks two LSTM layers over the
 * monitored-metric time series; this class implements one such layer
 * over a time-major sequence of (batch x features) matrices.
 *
 * Each timestep runs as two GEMMs plus one fused element-wise pass
 * over persistent workspaces, with no per-step temporaries
 * (DESIGN.md §11.1).  The op order per element is fixed, and
 * tests/ml/lstm_oracle.hh restates it one element at a time: the
 * suites in tests/ml compare outputs, input gradients and parameter
 * gradients with that loop oracle bit for bit.
 */

#ifndef ADRIAS_ML_LSTM_HH
#define ADRIAS_ML_LSTM_HH

#include <vector>

#include "common/rng.hh"
#include "ml/layer.hh"

namespace adrias::ml
{

/**
 * Single LSTM layer.
 *
 * Gate layout inside the packed 4H-wide weight matrices is
 * [input | forget | cell | output].  The forget-gate bias is
 * initialized to one, the standard remedy for early vanishing
 * gradients.
 */
class Lstm
{
  public:
    /**
     * @param input_size per-step feature width.
     * @param hidden_size state width H.
     * @param rng weight-initialization source.
     */
    Lstm(std::size_t input_size, std::size_t hidden_size, Rng &rng);

    /**
     * Run the layer across a sequence (initial state is zero).
     *
     * @param sequence time-major input; sequence[t] is (batch x input).
     * @return hidden states; result[t] is (batch x hidden).
     */
    std::vector<Matrix> forwardSequence(const std::vector<Matrix> &sequence);

    /** Whether backwardSequence() computes dLoss/dX. */
    enum class InputGrad
    {
        Compute, ///< return dLoss/dX_t for every step
        Skip,    ///< nobody reads it (a first layer): return nothing
    };

    /**
     * BPTT through the most recent forwardSequence().
     *
     * @param grad_hidden dLoss/dH_t for every step (zero matrices are
     *        fine for steps whose output is unused).
     * @param input_grad Skip leaves out the dz*Wx^T product of every
     *        step; the parameter gradients are bitwise the same.
     * @return dLoss/dX_t for every step, or an empty vector with
     *         InputGrad::Skip; parameter gradients accumulate.
     */
    std::vector<Matrix>
    backwardSequence(const std::vector<Matrix> &grad_hidden,
                     InputGrad input_grad = InputGrad::Compute);

    /** @return trainable parameters (Wx, Wh, bias). */
    std::vector<Param *> params();

    /**
     * Inference fast-path toggle: when on, forwardSequence() skips all
     * per-step cache construction (outputs are bitwise identical) and
     * a subsequent backwardSequence() panics.  Orthogonal to any
     * train/eval statistics mode — eval-mode *backward* is a supported
     * use elsewhere, so inference must be requested explicitly.
     * Turning it on releases the last training forward's caches.
     */
    void setInference(bool on);

    /** @return whether the inference fast-path is active. */
    bool inference() const { return isInference; }

    std::size_t inputSize() const { return wx.value.rows(); }
    std::size_t hiddenSize() const { return wh.value.rows(); }

  private:
    Param wx; ///< (input x 4H)
    Param wh; ///< (hidden x 4H)
    Param b;  ///< (1 x 4H)

    bool isInference = false;

    /**
     * Per-timestep state kept by the training forward pass for BPTT:
     * post-activation gates packed (batch x 4H) in [i|f|g|o] layout,
     * plus the two state tensors.  c_prev for step t is read from
     * step t-1's `cell` (zeros at t = 0), so it is not stored.
     */
    struct StepCache
    {
        Matrix input;
        Matrix hPrev;
        Matrix gates;
        Matrix cell;
        Matrix tanhCell;
    };

    /**
     * Caches persist across calls so steady-state training reuses
     * their storage instead of reallocating every sequence.
     */
    std::vector<StepCache> caches;

    /**
     * Persistent workspaces (DESIGN.md §11.2).  wsXall stacks the
     * whole input sequence (steps*batch x input) so all x*Wx products
     * run as one GEMM into wsZx.  wsZx / wsZh hold the two GEMM
     * products separately — fusing them into one accumulator would
     * interleave their k-loops and change the floating-point addition
     * order.  wsDz is the packed (batch x 4H) pre-activation gradient;
     * wsGradW stages each parameter-gradient product so accumulation
     * stays compute-then-add: each product is finished before it is
     * added to the gradient.  wsWxT / wsWhT hold Wx^T and Wh^T for
     * the dz*W^T products: the weights are fixed for one backward
     * pass, so they are transposed once per sequence, not per step.
     */
    Matrix wsXall;
    Matrix wsZx;
    Matrix wsZh;
    Matrix wsC;
    Matrix wsDz;
    Matrix wsDhNext;
    Matrix wsDcNext;
    Matrix wsGradW;
    Matrix wsWxT;
    Matrix wsWhT;
};

} // namespace adrias::ml

#endif // ADRIAS_ML_LSTM_HH
