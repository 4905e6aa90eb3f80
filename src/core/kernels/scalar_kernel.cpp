/**
 * @file
 * Portable reference QuantKernel: thin dispatch-shaped wrappers around
 * the reference_* block routines in quant_kernel.cpp.  Every other
 * kernel implementation is tested bit-for-bit against this one.
 */

#include <vector>

#include "core/check.h"
#include "core/kernels/dispatch.h"
#include "core/kernels/quant_kernel.h"

namespace mx {
namespace core {
namespace kernels {

namespace {

/** Stack capacity for per-block pack scratch; larger k1 goes to heap. */
constexpr std::size_t kStackBlock = 512;

class ScalarKernel final : public QuantKernel
{
  public:
    const char* name() const override { return "scalar"; }

    void
    quantize(const QuantPlan& plan, std::span<const float> in,
             std::span<float> out, const Rounder& rounder) const override
    {
        MX_CHECK_ARG(in.size() == out.size(), "quantize: size mismatch");
        const std::size_t k1 = static_cast<std::size_t>(plan.k1);
        for (std::size_t off = 0; off < in.size(); off += k1) {
            const std::size_t n = std::min(k1, in.size() - off);
            reference_quantize_block(plan, in.data() + off, n,
                                     out.data() + off, rounder, nullptr,
                                     nullptr);
        }
    }

    void
    quantize_block(const QuantPlan& plan, std::span<const float> in,
                   std::span<float> out, const Rounder& rounder,
                   Pow2BlockEncoding* enc) const override
    {
        MX_CHECK_ARG(in.size() == out.size(),
                     "quantize_block: size mismatch");
        if (!enc) {
            reference_quantize_block(plan, in.data(), in.size(), out.data(),
                                     rounder, nullptr, nullptr);
            return;
        }
        enc->sub_shift.assign(plan.num_sub_blocks(in.size()), 0);
        enc->mantissa.assign(in.size(), 0);
        enc->shared_exp = reference_quantize_block(
            plan, in.data(), in.size(), out.data(), rounder,
            enc->sub_shift.data(), enc->mantissa.data());
    }

    void
    quantize_pack(const QuantPlan& plan, std::span<const float> in,
                  const Rounder& rounder, BitWriter& writer) const override
    {
        const std::size_t k1 = static_cast<std::size_t>(plan.k1);
        float out_stack[kStackBlock];
        std::uint8_t tau_stack[kStackBlock];
        std::int32_t mant_stack[kStackBlock];
        std::vector<float> out_heap;
        std::vector<std::uint8_t> tau_heap;
        std::vector<std::int32_t> mant_heap;
        float* out = out_stack;
        std::uint8_t* taus = tau_stack;
        std::int32_t* mant = mant_stack;
        if (k1 > kStackBlock) {
            out_heap.resize(k1);
            tau_heap.resize(plan.num_sub_blocks(k1));
            mant_heap.resize(k1);
            out = out_heap.data();
            taus = tau_heap.data();
            mant = mant_heap.data();
        }
        for (std::size_t off = 0; off < in.size(); off += k1) {
            const std::size_t n = std::min(k1, in.size() - off);
            const int shared = reference_quantize_block(
                plan, in.data() + off, n, out, rounder, taus, mant);
            detail::write_block_bits(plan, shared, taus,
                                     plan.num_sub_blocks(n), mant, n,
                                     writer);
        }
    }

    void
    quantize_fold_rows(const QuantPlan& plan, const float* in,
                       std::size_t rows, std::size_t cols,
                       const Rounder& rounder, std::int16_t* mant,
                       std::int16_t* exp,
                       std::size_t group_rows) const override
    {
        MX_CHECK_ARG(plan.m + plan.beta <= 15,
                     "quantize_fold_rows: folded mantissa wider than int16");
        const std::size_t k1 = static_cast<std::size_t>(plan.k1);
        const std::size_t bpr = (cols + k1 - 1) / k1;
        for (std::size_t r = 0; r < rows; ++r) {
            std::int16_t* e = exp + (r / group_rows) * bpr * group_rows +
                              r % group_rows;
            for (std::size_t off = 0; off < cols;
                 off += k1, e += group_rows) {
                const std::size_t n = std::min(k1, cols - off);
                *e = static_cast<std::int16_t>(reference_quantize_fold_block(
                    plan, in + r * cols + off, n, rounder,
                    mant + r * cols + off));
            }
        }
    }

    void
    dequantize_block(const QuantPlan& plan, const Pow2BlockEncoding& enc,
                     std::span<float> out) const override
    {
        MX_CHECK_ARG(out.size() == enc.mantissa.size(),
                     "dequantize_block: size mismatch");
        MX_CHECK_ARG(enc.sub_shift.size() >= plan.num_sub_blocks(out.size()),
                     "dequantize_block: missing sub-shifts");
        reference_dequantize_block(plan, enc.shared_exp,
                                   enc.sub_shift.data(), enc.mantissa.data(),
                                   out.size(), out.data());
    }
};

} // namespace

const QuantKernel&
scalar_kernel()
{
    static const ScalarKernel kernel;
    return kernel;
}

} // namespace kernels
} // namespace core
} // namespace mx
