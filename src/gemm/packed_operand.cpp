#include "gemm/packed_operand.h"

#include <algorithm>

#include "core/bitstream.h"
#include "core/check.h"
#include "core/kernels/dispatch.h"
#include "gemm/gemm_plan.h"

namespace mx {
namespace gemm {

using core::kernels::QuantPlan;

std::size_t
row_bits(const QuantPlan& plan, std::size_t cols)
{
    const std::size_t k1 = static_cast<std::size_t>(plan.k1);
    const std::size_t blocks = (cols + k1 - 1) / k1;
    const std::size_t subs = plan.num_sub_blocks(cols);
    return blocks * static_cast<std::size_t>(plan.d1) +
           subs * static_cast<std::size_t>(plan.d2) +
           cols * static_cast<std::size_t>(1 + plan.m);
}

PackedOperand::PackedOperand(const QuantPlan& plan, std::size_t rows,
                             std::size_t cols)
    : plan_(plan), rows_(rows), cols_(cols)
{
    MX_CHECK_ARG(rows > 0 && cols > 0,
                 "PackedOperand: empty operand [" << rows << " x " << cols
                                                  << "]");
    MX_CHECK_ARG(operand_eligible(plan),
                 "PackedOperand: folded mantissa too wide for the int16 "
                 "execution view (m=" << plan.m << ", beta=" << plan.beta
                                      << ")");
    blocks_per_row_ = (cols + static_cast<std::size_t>(plan.k1) - 1) /
                      static_cast<std::size_t>(plan.k1);
    const std::size_t groups = (rows + kExpGroupRows - 1) / kExpGroupRows;
    mantissa_.resize(rows * cols);
    exp_.assign(groups * blocks_per_row_ * kExpGroupRows, 0);
}

std::size_t
row_stream_bytes(const QuantPlan& plan, std::size_t cols)
{
    return (row_bits(plan, cols) + 7) / 8;
}

void
pack_rows_aligned(const QuantPlan& plan, const float* x, std::size_t rows,
                  std::size_t cols, const core::Rounder& rounder,
                  std::vector<std::uint8_t>& out)
{
    const core::kernels::QuantKernel& kernel =
        core::kernels::active_kernel();
    const std::size_t expect =
        out.size() + rows * row_stream_bytes(plan, cols);
    if (out.empty())
        out.reserve(expect);
    // One writer appends every row in place, byte-aligned between rows:
    // BitWriter zero-pads the partial byte align() closes, which is
    // exactly the byte-aligned row boundary.
    core::BitWriter w(std::move(out));
    for (std::size_t r = 0; r < rows; ++r) {
        kernel.quantize_pack_rows(plan, x + r * cols, 1, cols, rounder, w);
        w.align();
    }
    out = w.take();
    MX_CHECK(out.size() == expect, "pack_rows_aligned: stream grew to "
                                       << out.size() << " bytes, expected "
                                       << expect);
}

std::size_t
PackedOperand::row_bit_offset(std::size_t r) const
{
    MX_CHECK_ARG(r < rows_, "PackedOperand: row out of range");
    return r * row_bits(plan_, cols_);
}

std::size_t
PackedOperand::memory_bytes() const
{
    return (mantissa_.size() + exp_.size()) * sizeof(std::int16_t);
}

namespace {

/** Stream bits of one whole k1-block: the stride between a row's
 *  consecutive blocks (only a row's last block may be shorter). */
std::size_t
block_bits(const QuantPlan& plan)
{
    return row_bits(plan, static_cast<std::size_t>(plan.k1));
}

} // namespace

template <typename BlockAt>
PackedOperand
PackedOperand::decode_blocks(const QuantPlan& plan, std::size_t rows,
                             std::size_t cols, BlockAt block_at)
{
    PackedOperand op(plan, rows, cols);
    const std::size_t k1 = static_cast<std::size_t>(plan.k1);
    std::vector<std::uint8_t> tau(plan.num_sub_blocks(k1));
    std::vector<std::int32_t> raw(k1);
    for (std::size_t r = 0; r < rows; ++r) {
        std::int16_t* mant = op.mantissa_.data() + r * cols;
        std::int16_t* exp = op.exp_.data() + op.exp_index(r);
        for (std::size_t off = 0, blk = 0; off < cols;
             off += k1, ++blk, exp += kExpGroupRows) {
            const std::size_t n = std::min(k1, cols - off);
            const BlockAddr at = block_at(r, blk);
            std::size_t pos = at.bit;
            *exp = static_cast<std::int16_t>(
                core::kernels::detail::read_block_bits(
                    plan, at.stream.data(), at.stream.size(), pos,
                    tau.data(), plan.num_sub_blocks(n), raw.data(), n));
            core::kernels::detail::fold_block(plan, raw.data(), tau.data(),
                                              n, mant + off);
        }
    }
    return op;
}

PackedOperand
PackedOperand::decode(const QuantPlan& plan,
                      std::span<const std::uint8_t> bytes,
                      std::size_t rows, std::size_t cols)
{
    const std::size_t bits = row_bits(plan, cols);
    MX_CHECK_ARG(bytes.size() * 8 >= rows * bits,
                 "PackedOperand::decode: stream too short for ["
                     << rows << " x " << cols << "]");
    const std::size_t blk_bits = block_bits(plan);
    return decode_blocks(plan, rows, cols,
                         [&](std::size_t r, std::size_t blk) {
                             return BlockAddr{bytes,
                                              r * bits + blk * blk_bits};
                         });
}

PackedOperand
PackedOperand::decode_rows(const QuantPlan& plan,
                           std::span<const std::uint8_t> bytes,
                           std::size_t rows, std::size_t cols)
{
    const std::size_t stride = row_stream_bytes(plan, cols);
    MX_CHECK_ARG(bytes.size() >= rows * stride,
                 "PackedOperand::decode_rows: stream holds "
                     << bytes.size() << " bytes, [" << rows << " x " << cols
                     << "] needs " << rows * stride);
    const std::size_t blk_bits = block_bits(plan);
    return decode_blocks(plan, rows, cols,
                         [&](std::size_t r, std::size_t blk) {
                             return BlockAddr{bytes, r * stride * 8 +
                                                         blk * blk_bits};
                         });
}

PackedOperand
PackedOperand::decode_slab_rows(
    const QuantPlan& plan, std::span<const std::vector<std::uint8_t>> slabs,
    std::size_t row0, std::size_t rows)
{
    const std::size_t k1 = static_cast<std::size_t>(plan.k1);
    const std::size_t stride = row_stream_bytes(plan, k1);
    for (std::size_t b = 0; b < slabs.size(); ++b)
        MX_CHECK_ARG(slabs[b].size() >= (row0 + rows) * stride,
                     "PackedOperand::decode_slab_rows: slab "
                         << b << " holds " << slabs[b].size()
                         << " bytes, rows [" << row0 << ", " << row0 + rows
                         << ") need " << (row0 + rows) * stride);
    return decode_blocks(plan, rows, slabs.size() * k1,
                         [&](std::size_t r, std::size_t blk) {
                             return BlockAddr{slabs[blk],
                                              (row0 + r) * stride * 8};
                         });
}

PackedOperand
PackedOperand::quantize(const QuantPlan& plan, const float* x,
                        std::size_t rows, std::size_t cols,
                        const core::Rounder& rounder)
{
    PackedOperand op(plan, rows, cols);
    core::kernels::active_kernel().quantize_fold_rows(
        plan, x, rows, cols, rounder, op.mantissa_.data(), op.exp_.data(),
        kExpGroupRows);
    return op;
}

} // namespace gemm
} // namespace mx
