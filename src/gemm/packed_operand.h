#pragma once

/**
 * @file
 * The integer execution view of a packed MX/BFP matrix operand.
 *
 * The packed bit stream (formats/block_codec.h layout) is the storage
 * form; a PackedOperand is the same information laid out for the
 * Figure 6 dot-product pipeline to consume directly: int16 mantissas
 * with each sub-block's shift already applied, and per-block shared
 * exponents.  Nothing here is a dequantized float — the view stays in
 * the integer domain, which is what lets the packed GEMM run without
 * ever materializing an FP32 copy of the operand.
 *
 * Folded mantissas.  The stream stores a sign-magnitude mantissa M per
 * element and a sub-shift tau per k2 sub-block; the view stores
 *
 *   M' = M << (beta - tau)          (beta = 2^d2 - 1, so tau <= beta)
 *
 * so an element's value is M' * 2^(E - beta - (m - 1)) and a block's
 * whole dot product is one plain integer sum of M'a * M'b — the
 * sub-block shifts ride the mantissas instead of a per-sub-block
 * shifter.  |M'| <= (2^m - 1) * 2^beta, which fits int16 exactly when
 * m + beta <= 15 (operand_eligible).  A plain BFP operand (d2 = 0) has
 * beta = 0 and M' = M.
 *
 * Exponent layout.  Shared exponents are stored in groups of
 * kExpGroupRows rows, block-major inside a group: the exponents of one
 * block for 16 consecutive rows are contiguous, so a kernel that gives
 * each vector lane one B row loads a block's 16 exponents with one
 * load.  The final group is zero-padded to full height.
 *
 * Two builders cover both GEMM operands:
 *  - decode():   bit stream -> view (weights, built once at freeze);
 *  - quantize(): floats -> view (activations, built per call) in ONE
 *                dispatched QuantKernel::quantize_fold_rows call: each
 *                block's shared exponent goes straight into the
 *                grouped exponent layout and its folded int16
 *                mantissas straight into the row — no dequantized grid,
 *                no per-block virtual call, no second pass.  The
 *                encodings are the fake-quant path's (the scalar leg
 *                IS reference_quantize_block plus the fold); the AVX2
 *                leg keeps a block in registers, ragged tails included
 *                (masked loads), and hands the reference only the
 *                blocks it cannot mirror exactly.  Every activation
 *                operand is built here: Linear inputs, the shared
 *                Q/K/V input, Q for Q.K^T, P for P.V and each query
 *                row's 1..k1-1 wide V^T tail.
 *
 * Reading the stream.  The decoders are block-addressed: each says
 * where every (row, k1-block) starts — a stream and a bit offset — and
 * one read loop does the rest.  decode() and decode_rows() address one
 * stream; decode_slab_rows() takes block b of every row from slab b.
 * Each checks its streams' lengths once per call; the loop reads every
 * block through core::kernels::detail::read_block_bits (the inverse of
 * the packers' write_block_bits: unaligned 64-bit window loads, no
 * per-field bounds check) and folds the shifts in a second pass over
 * the block (core::kernels::detail::fold_block, the fold the reference
 * encoder applies too).  The second pass is the faster order for MX9's
 * byte-wide codes, whose read loop vectorizes only while it does
 * nothing else.
 * decode_rows() and decode_slab_rows() are on the serving hot path: a
 * warm attention step rebuilds the view of each layer's whole packed K
 * prefix and each head's committed V^T (nn/attention.cpp, span
 * "attn.decode_prefix"), so their cost per element is paid for every
 * cached key on every decoded token.
 *
 * Rows are independent: blocks never straddle a row boundary (the
 * nn::quantize_rows contract), every row occupies the same number of
 * stream bits, and row_bit_offset() exposes the per-row offsets so
 * ragged widths (rows ending in a short tail block) need no re-plan.
 */

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/kernels/quant_kernel.h"
#include "core/rounding.h"

namespace mx {
namespace gemm {

/** Rows per exponent group: one AVX-512 vector of int32 lanes. */
inline constexpr std::size_t kExpGroupRows = 16;

/** One row's shared exponents inside the grouped layout. */
struct ExpRow
{
    const std::int16_t* p = nullptr;

    std::int16_t
    operator[](std::size_t blk) const
    {
        return p[blk * kExpGroupRows];
    }
};

/** Decoded [rows x cols] operand in the packed-GEMM execution layout. */
class PackedOperand
{
  public:
    PackedOperand() = default;

    /**
     * Decode a packed pow2-block stream (the exact
     * formats/block_codec.h layout quantize_pack_rows emits) into the
     * execution view.  @p bytes must hold rows * row_bits(plan, cols)
     * bits.  The span is only read during the call — a view into a
     * read-only artifact mapping works (the operand owns its arrays).
     */
    static PackedOperand decode(const core::kernels::QuantPlan& plan,
                                std::span<const std::uint8_t> bytes,
                                std::size_t rows, std::size_t cols);

    /**
     * Decode a *byte-aligned* row stream: row r starts at byte offset
     * r * row_stream_bytes(plan, cols), with the final partial byte of
     * each row zero-padded (the pack_rows_aligned layout).  This is the
     * storage form of the native MX K/V cache — byte alignment is what
     * makes per-token append a memcpy and prefix truncation a resize,
     * at a cost of at most 7 pad bits per row.
     */
    static PackedOperand decode_rows(const core::kernels::QuantPlan& plan,
                                     std::span<const std::uint8_t> bytes,
                                     std::size_t rows, std::size_t cols);

    /**
     * Decode rows [@p row0, @p row0 + @p rows) of a run of byte-aligned
     * one-block slabs (each a decode_rows stream of k1-element rows) as
     * ONE operand: row r, block b is row @p row0 + r of slabs[b], so the
     * result is [rows x slabs.size() * k1] — the column concatenation of
     * the slabs' row views.  This is how one head's visible V^T leaves
     * the native V cache's [d_model, k1] slabs as an ordinary NT
     * operand.  Every slab must hold (row0 + rows) rows.
     */
    static PackedOperand
    decode_slab_rows(const core::kernels::QuantPlan& plan,
                     std::span<const std::vector<std::uint8_t>> slabs,
                     std::size_t row0, std::size_t rows);

    /**
     * Quantize a float matrix straight into the execution view through
     * the dispatched QuantKernel::quantize_fold_rows — the
     * activation-side builder.  The integer encodings are identical to
     * what quantize_rows would produce before its final
     * dequantize-to-grid step, and to decode() of the packed stream.
     */
    static PackedOperand quantize(const core::kernels::QuantPlan& plan,
                                  const float* x, std::size_t rows,
                                  std::size_t cols,
                                  const core::Rounder& rounder);

    /** True once a builder has run. */
    bool valid() const { return rows_ > 0 && cols_ > 0; }

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    const core::kernels::QuantPlan& plan() const { return plan_; }

    /** k1-blocks per row (the last may be a short tail). */
    std::size_t blocks_per_row() const { return blocks_per_row_; }
    /** Row @p r's folded mantissas (cols entries,
     *  |M'| <= (2^m - 1) * 2^beta). */
    const std::int16_t*
    row_mantissa(std::size_t r) const
    {
        return mantissa_.data() + r * cols_;
    }

    /** Row @p r's shared exponents: blocks_per_row() entries, indexed
     *  by block (a strided view into the grouped layout). */
    ExpRow
    row_exp(std::size_t r) const
    {
        return ExpRow{exp_.data() + exp_index(r)};
    }

    /** Group @p g's exponents (rows [g * kExpGroupRows, +kExpGroupRows)):
     *  entry blk * kExpGroupRows + lane is row g * kExpGroupRows + lane's
     *  block blk; lanes past rows() read 0. */
    const std::int16_t*
    group_exp(std::size_t g) const
    {
        return exp_.data() + g * blocks_per_row_ * kExpGroupRows;
    }

    /** Bit offset of row @p r inside the source packed stream (every
     *  row occupies the same number of bits, ragged tail included). */
    std::size_t row_bit_offset(std::size_t r) const;

    /** Heap bytes held by the view (the serving-memory number the
     *  bench reports next to 32-bit floats and the packed stream). */
    std::size_t memory_bytes() const;

  private:
    PackedOperand(const core::kernels::QuantPlan& plan, std::size_t rows,
                  std::size_t cols);

    /** Where one (row, k1-block) starts: the stream that holds it and
     *  its first bit inside that stream. */
    struct BlockAddr
    {
        std::span<const std::uint8_t> stream;
        std::size_t bit = 0;
    };

    /** The one read loop every decoder shares: block @p blk of row
     *  @p r is read at @p block_at(r, blk); the caller has
     *  length-checked every stream for every block it addresses. */
    template <typename BlockAt>
    static PackedOperand decode_blocks(const core::kernels::QuantPlan& plan,
                                       std::size_t rows, std::size_t cols,
                                       BlockAt block_at);

    /** Index of row @p r's block-0 exponent in exp_; its later blocks
     *  follow at stride kExpGroupRows. */
    std::size_t
    exp_index(std::size_t r) const
    {
        return (r / kExpGroupRows) * blocks_per_row_ * kExpGroupRows +
               r % kExpGroupRows;
    }

    core::kernels::QuantPlan plan_;
    std::size_t rows_ = 0, cols_ = 0;
    std::size_t blocks_per_row_ = 0;
    std::vector<std::int16_t> mantissa_; ///< rows x cols, folded
    std::vector<std::int16_t> exp_; ///< row groups x blocks x kExpGroupRows
};

/** Stream bits of one row of @p cols elements under @p plan (the
 *  per-row stride behind PackedOperand::row_bit_offset). */
std::size_t row_bits(const core::kernels::QuantPlan& plan,
                     std::size_t cols);

/** Byte stride of one row in a byte-aligned row stream (the
 *  pack_rows_aligned / decode_rows layout): ceil(row_bits / 8). */
std::size_t row_stream_bytes(const core::kernels::QuantPlan& plan,
                             std::size_t cols);

/**
 * Quantize+pack @p rows rows of @p cols floats, appending each row's
 * packed bits to @p out at a byte-aligned offset (zero-padding the
 * row's final partial byte).  The append form of the native MX K/V
 * cache: quantize once when a token arrives, then only bytes move.
 * Grows @p out by rows * row_stream_bytes(plan, cols).
 */
void pack_rows_aligned(const core::kernels::QuantPlan& plan,
                       const float* x, std::size_t rows, std::size_t cols,
                       const core::Rounder& rounder,
                       std::vector<std::uint8_t>& out);

} // namespace gemm
} // namespace mx
