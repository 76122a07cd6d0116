#include "ml/lstm.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/logging.hh"
#include "ml/fastmath.hh"
#include "ml/simd.hh"

namespace adrias::ml
{

namespace
{

/** One element of the fused gate pass: the gates, c_t and tanh(c_t). */
struct GateCell
{
    double gi, gf, gg, go, cell, tanhCell;
};

/**
 * Gates and cell update of hidden unit c of one row, in the per-element
 * op order of DESIGN.md §11.1 (and of the loop oracle in
 * tests/ml/lstm_oracle.hh): z = (zx + zh) + bias; gates through
 * fastmath sigmoid/tanh; c = (f*c_prev) + (i*g).  The two gate loops
 * below share this one copy of the math.
 */
[[gnu::always_inline]] inline GateCell
gateCell(const double *__restrict za, const double *__restrict zb,
         const double *__restrict bias, std::size_t hidden, std::size_t c,
         double c_prev)
{
    const double zi = (za[c] + zb[c]) + bias[c];
    const double zf = (za[hidden + c] + zb[hidden + c]) + bias[hidden + c];
    const double zg =
        (za[2 * hidden + c] + zb[2 * hidden + c]) + bias[2 * hidden + c];
    const double zo =
        (za[3 * hidden + c] + zb[3 * hidden + c]) + bias[3 * hidden + c];
    const double gi = fastmath::sigmoid(zi);
    const double gf = fastmath::sigmoid(zf);
    const double gg = fastmath::tanh(zg);
    const double go = fastmath::sigmoid(zo);
    const double cell = (gf * c_prev) + (gi * gg);
    return {gi, gf, gg, go, cell, fastmath::tanh(cell)};
}

/**
 * Inference gate loop over `batch` rows: the cell state updates in
 * place and h = o * tanh(c) lands in hidden_out.  za / zb are the
 * (batch x 4*hidden) x*Wx and h*Wh products, cell / hidden_out
 * (batch x hidden).  No cache store and no branch the compiler cannot
 * if-convert, so both clones vectorize over c.
 */
ADRIAS_SCALAR_CLONES void
gateRowsInference(const double *__restrict za, const double *__restrict zb,
                  const double *__restrict bias, double *__restrict cell,
                  double *__restrict hidden_out, std::size_t batch,
                  std::size_t hidden)
{
    const std::size_t gate_width = 4 * hidden;
    for (std::size_t r = 0; r < batch; ++r) {
        const double *zar = za + r * gate_width;
        const double *zbr = zb + r * gate_width;
        double *crow = cell + r * hidden;
        double *hrow = hidden_out + r * hidden;
        for (std::size_t c = 0; c < hidden; ++c) {
            const GateCell g = gateCell(zar, zbr, bias, hidden, c, crow[c]);
            crow[c] = g.cell;
            hrow[c] = g.go * g.tanhCell;
        }
    }
}

/**
 * Training gate loop: gateRowsInference plus the caches backward
 * consumes — the four gates (batch x 4*hidden, the z layout), c_t and
 * tanh(c_t) (batch x hidden each).
 */
ADRIAS_SCALAR_CLONES void
gateRowsTraining(const double *__restrict za, const double *__restrict zb,
                 const double *__restrict bias, double *__restrict cell,
                 double *__restrict hidden_out, double *__restrict gates,
                 double *__restrict cell_cache,
                 double *__restrict tanh_cache, std::size_t batch,
                 std::size_t hidden)
{
    const std::size_t gate_width = 4 * hidden;
    for (std::size_t r = 0; r < batch; ++r) {
        const double *zar = za + r * gate_width;
        const double *zbr = zb + r * gate_width;
        double *crow = cell + r * hidden;
        double *hrow = hidden_out + r * hidden;
        double *grow = gates + r * gate_width;
        double *ccrow = cell_cache + r * hidden;
        double *tcrow = tanh_cache + r * hidden;
        for (std::size_t c = 0; c < hidden; ++c) {
            const GateCell g = gateCell(zar, zbr, bias, hidden, c, crow[c]);
            crow[c] = g.cell;
            hrow[c] = g.go * g.tanhCell;
            grow[c] = g.gi;
            grow[hidden + c] = g.gf;
            grow[2 * hidden + c] = g.gg;
            grow[3 * hidden + c] = g.go;
            ccrow[c] = g.cell;
            tcrow[c] = g.tanhCell;
        }
    }
}

/**
 * BPTT element-wise pass of one step over `batch` rows: from the
 * cached gates (the z layout), tanh(c_t) and c_{t-1} and from
 * dh = grad_h + dh_next, writes the packed (batch x 4*hidden)
 * pre-activation gradient dz and updates dc_next in place.  The op
 * order per element is fixed (the oracle's BPTT restates it), and the
 * lanes are independent hidden units, so both clones return the same
 * bits.
 */
ADRIAS_SCALAR_CLONES void
dzRows(const double *__restrict gates, const double *__restrict tanh_cell,
       const double *__restrict c_prev, const double *__restrict grad_h,
       const double *__restrict dh_next, double *__restrict dc_next,
       double *__restrict dz, std::size_t batch, std::size_t hidden)
{
    const std::size_t gate_width = 4 * hidden;
    for (std::size_t r = 0; r < batch; ++r) {
        const double *grow = gates + r * gate_width;
        const double *tcrow = tanh_cell + r * hidden;
        const double *cprow = c_prev + r * hidden;
        const double *ghrow = grad_h + r * hidden;
        const double *dhrow = dh_next + r * hidden;
        double *dcrow = dc_next + r * hidden;
        double *dzrow = dz + r * gate_width;
        for (std::size_t c = 0; c < hidden; ++c) {
            const double gi = grow[c];
            const double gf = grow[hidden + c];
            const double gg = grow[2 * hidden + c];
            const double go = grow[3 * hidden + c];
            const double tc = tcrow[c];
            const double dh = ghrow[c] + dhrow[c];
            // h = o * tanh(c)
            const double d_o = dh * tc;
            const double dc = ((dh * go) * (1.0 - tc * tc)) + dcrow[c];
            // c = f*c_prev + i*g
            const double d_f = dc * cprow[c];
            const double d_i = dc * gg;
            const double d_g = dc * gi;
            dcrow[c] = dc * gf;
            // through the gate non-linearities
            dzrow[c] = d_i * (gi * (1.0 - gi));
            dzrow[hidden + c] = d_f * (gf * (1.0 - gf));
            dzrow[2 * hidden + c] = d_g * (1.0 - gg * gg);
            dzrow[3 * hidden + c] = d_o * (go * (1.0 - go));
        }
    }
}

} // namespace

Lstm::Lstm(std::size_t input_size, std::size_t hidden_size, Rng &rng)
    : wx("lstm.wx", Matrix(input_size, 4 * hidden_size)),
      wh("lstm.wh", Matrix(hidden_size, 4 * hidden_size)),
      b("lstm.b", Matrix(1, 4 * hidden_size))
{
    const double limit =
        1.0 / std::sqrt(static_cast<double>(hidden_size));
    for (double &w : wx.value.raw())
        w = rng.uniform(-limit, limit);
    for (double &w : wh.value.raw())
        w = rng.uniform(-limit, limit);
    // Forget-gate bias (second H-wide block) starts at one.
    for (std::size_t c = hidden_size; c < 2 * hidden_size; ++c)
        b.value.at(0, c) = 1.0;
}

void
Lstm::setInference(bool on)
{
    isInference = on;
    // No backward can follow, so free the caches now rather than at
    // the next forward: a model that stops training keeps no BPTT
    // state alive for the rest of the process.
    if (on)
        caches.clear();
}

std::vector<Matrix>
Lstm::forwardSequence(const std::vector<Matrix> &sequence)
{
    if (sequence.empty())
        fatal("Lstm::forwardSequence on empty sequence");
    const std::size_t hidden = hiddenSize();
    const std::size_t batch = sequence.front().rows();
    const std::size_t steps = sequence.size();
    const std::size_t gate_width = 4 * hidden;

    const bool keep_caches = !isInference;
    if (!keep_caches)
        caches.clear();
    else if (caches.size() != steps)
        caches.resize(steps);

    // c_0 is all zeros; the cell state is then updated in place.
    wsC.resize(batch, hidden);

    // All x_t * Wx products in one batched GEMM over the stacked
    // sequence: every GEMM output row depends only on its own input
    // row, so stacking steps is bitwise-neutral and one
    // (steps*batch x input) product amortizes per-call overhead that
    // dominates small batches.
    wsXall.resizeForOverwrite(steps * batch, inputSize());
    {
        const std::size_t step_elems = batch * inputSize();
        double *xall = wsXall.raw().data();
        for (std::size_t t = 0; t < steps; ++t) {
            const Matrix &x = sequence[t];
            if (x.rows() != batch || x.cols() != inputSize())
                panic("Lstm: inconsistent sequence element shape");
            const double *src = x.raw().data();
            std::copy(src, src + step_elems, xall + t * step_elems);
        }
    }
    wsXall.matmulInto(wx.value, wsZx);

    std::vector<Matrix> outputs;
    outputs.reserve(steps);

    const double *bias = b.value.raw().data();

    for (std::size_t t = 0; t < steps; ++t) {
        const Matrix &x = sequence[t];

        // The two GEMM products stay in separate buffers: z sums
        // finished products ((x*Wx) + (h*Wh)), so the epilogue must not
        // interleave their k-loop accumulations (DESIGN.md §11.1).
        if (t == 0) {
            // h_0 is all zeros and the GEMM's exact-zero skip leaves
            // its product identically +0.0, so a zeroed buffer is
            // bitwise equivalent without running the GEMM.
            wsZh.resize(batch, gate_width);
        } else {
            outputs[t - 1].matmulInto(wh.value, wsZh);
        }

        StepCache *cache = nullptr;
        if (keep_caches) {
            cache = &caches[t];
            cache->input = x;
            if (t == 0)
                cache->hPrev.resize(batch, hidden);
            else
                cache->hPrev = outputs[t - 1];
            cache->gates.resizeForOverwrite(batch, gate_width);
            cache->cell.resizeForOverwrite(batch, hidden);
            cache->tanhCell.resizeForOverwrite(batch, hidden);
        }

        outputs.emplace_back();
        Matrix &h_out = outputs.back();
        h_out.resizeForOverwrite(batch, hidden);

        const double *za =
            wsZx.raw().data() + t * batch * gate_width;
        const double *zb = wsZh.raw().data();
        double *cbuf = wsC.raw().data();
        double *hbuf = h_out.raw().data();

        // One fused pass computes the gates, the cell update and h
        // (gateCell).  All buffers are distinct allocations
        // (workspaces, caches, output), so the kernels' __restrict
        // parameters hold.
        if (cache) {
            gateRowsTraining(za, zb, bias, cbuf, hbuf,
                             cache->gates.raw().data(),
                             cache->cell.raw().data(),
                             cache->tanhCell.raw().data(), batch, hidden);
        } else {
            gateRowsInference(za, zb, bias, cbuf, hbuf, batch, hidden);
        }
    }
    return outputs;
}

std::vector<Matrix>
Lstm::backwardSequence(const std::vector<Matrix> &grad_hidden,
                       InputGrad input_grad)
{
    const std::size_t steps = caches.size();
    if (grad_hidden.size() != steps)
        panic("Lstm::backwardSequence length mismatch with forward pass");
    if (steps == 0)
        panic("Lstm::backwardSequence before forwardSequence");
    const std::size_t hidden = hiddenSize();
    const std::size_t batch = caches.front().input.rows();
    const std::size_t gate_width = 4 * hidden;
    const bool input_grads = input_grad == InputGrad::Compute;

    std::vector<Matrix> grad_inputs(input_grads ? steps : 0);
    wsDhNext.resize(batch, hidden);
    wsDcNext.resize(batch, hidden);
    wsDz.resizeForOverwrite(batch, gate_width);
    // dz*W^T runs as dz*(W^T) on the GEMM row body, with no zero skip
    // (DESIGN.md §11.1); the weights do not change during the pass.
    if (input_grads)
        wx.value.transposeInto(wsWxT);
    if (steps > 1)
        wh.value.transposeInto(wsWhT);

    for (std::size_t step = steps; step-- > 0;) {
        const StepCache &cache = caches[step];
        const Matrix &gh = grad_hidden[step];
        if (gh.rows() != batch || gh.cols() != hidden) {
            panic("Lstm::backwardSequence gradient shape mismatch: " +
                  gh.shape() + " vs " + std::to_string(batch) + "x" +
                  std::to_string(hidden));
        }

        // c_0 is all zeros, and so is step 0's cached h_0 (same shape),
        // which stands in for it.
        const Matrix &c_prev =
            step > 0 ? caches[step - 1].cell : caches[0].hPrev;
        // Writes the packed dz block and the next-step dc in place.
        // All buffers are distinct allocations, so the kernel's
        // __restrict parameters hold.
        dzRows(cache.gates.raw().data(), cache.tanhCell.raw().data(),
               c_prev.raw().data(), gh.raw().data(), wsDhNext.raw().data(),
               wsDcNext.raw().data(), wsDz.raw().data(), batch, hidden);

        // Parameter gradients stay compute-then-accumulate: each
        // product lands in a zeroed staging buffer and is added in one
        // += pass, so a product is finished before it meets the
        // gradient accumulated so far.
        cache.input.transposedMatmulInto(wsDz, wsGradW);
        wx.grad += wsGradW;
        cache.hPrev.transposedMatmulInto(wsDz, wsGradW);
        wh.grad += wsGradW;
        wsDz.sumRowsAddTo(b.grad);

        if (input_grads)
            wsDz.matmulNoSkipInto(wsWxT, grad_inputs[step]);
        // Step 0's dh_{-1} has no reader.
        if (step > 0)
            wsDz.matmulNoSkipInto(wsWhT, wsDhNext);
    }
    return grad_inputs;
}

std::vector<Param *>
Lstm::params()
{
    return {&wx, &wh, &b};
}

} // namespace adrias::ml
