/**
 * @file
 * Sequential container of layers plus the "non-linear block" factory the
 * Adrias models reuse (Dense + ReLU + BatchNorm + Dropout, Fig. 11).
 */

#ifndef ADRIAS_ML_SEQUENTIAL_HH
#define ADRIAS_ML_SEQUENTIAL_HH

#include <memory>
#include <vector>

#include "common/rng.hh"
#include "ml/layer.hh"

namespace adrias::ml
{

/** Feed-forward chain of layers with joint forward/backward. */
class Sequential : public Layer
{
  public:
    Sequential() = default;

    /** Append a layer; returns a reference for chaining. */
    Sequential &add(std::unique_ptr<Layer> layer);

    /** In inference mode, runs inferInPlace over a copy of `input`. */
    Matrix forward(const Matrix &input) override;
    Matrix backward(const Matrix &grad_output) override;
    void inferInPlace(Matrix &activation) override;
    std::vector<Param *> params() override;
    void setTraining(bool training) override;
    void setInference(bool on) override;
    void beginStatsEstimation() override;
    void endStatsEstimation() override;
    std::vector<Matrix *> stateTensors() override;

  private:
    std::vector<std::unique_ptr<Layer>> layers;
};

/** Normalization flavour inside the non-linear head blocks. */
enum class HeadNorm
{
    Batch, ///< batch normalization (the paper's architecture)
    Layer, ///< layer normalization (no train/eval statistics gap)
};

/**
 * Build the triplet of non-linear blocks used as the prediction head in
 * both Adrias models, ending in a linear output layer.
 *
 * @param input_width width of the concatenated hidden representation.
 * @param hidden_width width of each non-linear block.
 * @param output_width final output width (8 metrics or 1 scalar).
 * @param dropout drop probability inside each block.
 * @param rng initialization and dropout-mask source.
 * @param norm normalization flavour (see HeadNorm).
 */
std::unique_ptr<Sequential>
makeNonLinearHead(std::size_t input_width, std::size_t hidden_width,
                  std::size_t output_width, double dropout, Rng &rng,
                  HeadNorm norm = HeadNorm::Batch);

} // namespace adrias::ml

#endif // ADRIAS_ML_SEQUENTIAL_HH
