#pragma once

/**
 * @file
 * The plan/execute split of the BDR pow2-block quantization hot path.
 *
 * A QuantPlan captures every per-format constant of a SignMagnitude /
 * Pow2Hw format (BFP when d2 == 0, MX when d2 > 0) once, so the
 * per-element kernels run without touching the BdrFormat descriptor.
 * QuantKernel is the execute side: an implementation provides contiguous
 * quantize (fake quantization of a whole span), per-block quantize with
 * integer encoding output, fused quantize+pack straight into an LSB-first
 * bit stream, fused quantize+fold of a whole matrix straight into the
 * packed-GEMM int16 execution view, and block dequantize.
 *
 * Implementations:
 *  - scalar_kernel(): the portable reference, numerically identical to
 *    the historical core::quantize_pow2_block loop.
 *  - avx2_kernel():   AVX2 vectorization of the same arithmetic; the
 *    test suite (tests/test_kernels.cpp) asserts its output — floats,
 *    encodings, and packed bit streams — is bit-identical to the scalar
 *    kernel for every format, size, and rounding mode.
 *
 * Selection happens at runtime in kernels/dispatch.h (CPU feature probe,
 * overridable with MX_FORCE_SCALAR=1).
 *
 * The packed block layout has one writer and one reader, both below in
 * namespace detail: write_block_bits emits a block for every kernel's
 * fused quantize+pack, and read_block_bits is its exact inverse, the
 * only loop in the tree that reads pow2 blocks back (PackedOperand's
 * decoders, formats::unpack, the frozen row decode).  Keeping the pair
 * side by side keeps the layout defined in one place.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "core/bdr_format.h"
#include "core/bitstream.h"
#include "core/rounding.h"

namespace mx {
namespace core {

/**
 * Integer encoding of one k1-block under power-of-two two-level scaling
 * (the in-memory form consumed by the hardware dot-product pipeline).
 */
struct Pow2BlockEncoding
{
    /** Unbiased shared exponent E (clamped to the d1-bit biased range). */
    int shared_exp = 0;
    /** Per-sub-block shift tau_i in [0, 2^d2 - 1]; size = ceil(n/k2). */
    std::vector<std::uint8_t> sub_shift;
    /** Signed mantissas, |M_i| <= 2^m - 1; size = n. */
    std::vector<std::int32_t> mantissa;

    /** Dequantized value of element @p i given the format's m. */
    double decode(const BdrFormat& fmt, std::size_t i) const;
};

namespace kernels {

/**
 * Precomputed per-format constants of the pow2-block quantization
 * function — the "plan" half of the plan/execute split.  Building a plan
 * is cheap (a handful of integer ops), but hoisting it out of the block
 * loop lets front-ends amortize the format checks over whole tensors.
 */
struct QuantPlan
{
    int m = 0;         ///< Explicit mantissa bits.
    int d1 = 0;        ///< Shared-exponent field width.
    int k1 = 0;        ///< Block granularity.
    int d2 = 0;        ///< Sub-shift field width (0 = plain BFP).
    int k2 = 0;        ///< Sub-block granularity.
    int e_min = 0;     ///< Smallest encodable shared exponent.
    int e_max = 0;     ///< Largest encodable shared exponent (= bias).
    int beta = 0;      ///< Maximum sub-block shift, 2^d2 - 1.
    std::int32_t mant_max = 0;  ///< Mantissa saturation value, 2^m - 1.
    double mant_max_d = 0;      ///< mant_max as a double (saturation compare).

    /** Sub-blocks covering @p n elements. */
    std::size_t
    num_sub_blocks(std::size_t n) const
    {
        return (n + static_cast<std::size_t>(k2) - 1) /
               static_cast<std::size_t>(k2);
    }
};

/**
 * Build the plan for @p fmt.  Throws mx::ArgumentError unless the format
 * is a SignMagnitude element with a Pow2Hw first-level scale (the only
 * family the block kernels implement).
 */
QuantPlan make_quant_plan(const BdrFormat& fmt);

/**
 * Reference block quantization (the semantics every kernel must match
 * bit-for-bit).  Quantizes @p n <= k1 elements, writing dequantized
 * values to @p out and, when the pointers are non-null, the raw integer
 * encoding: @p tau_out receives num_sub_blocks(n) sub-shifts and
 * @p mant_out receives n signed mantissas.
 *
 * @return the block's shared exponent (e_min for an all-zero block).
 */
int reference_quantize_block(const QuantPlan& plan, const float* in,
                             std::size_t n, float* out,
                             const Rounder& rounder,
                             std::uint8_t* tau_out, std::int32_t* mant_out);

/**
 * Reference encoding of one block straight into the packed-GEMM
 * execution view: reference_quantize_block, then the fold
 * M' = M << (beta - tau) (detail::fold_block) into @p folded (n
 * entries; requires m + beta <= 15 so every M' fits int16).  The
 * semantics QuantKernel::quantize_fold_rows must match bit-for-bit.
 *
 * @return the block's shared exponent.
 */
int reference_quantize_fold_block(const QuantPlan& plan, const float* in,
                                  std::size_t n, const Rounder& rounder,
                                  std::int16_t* folded);

/**
 * Reference block dequantization: @p mant / @p taus / @p shared_exp as
 * produced by reference_quantize_block, written back as floats.
 */
void reference_dequantize_block(const QuantPlan& plan, int shared_exp,
                                const std::uint8_t* taus,
                                const std::int32_t* mant, std::size_t n,
                                float* out);

/**
 * The execute side: one virtual call per span (or per block for the
 * _block entry points), dispatched once at the tensor level.
 */
class QuantKernel
{
  public:
    virtual ~QuantKernel() = default;

    /** Implementation name for reports and tests ("scalar", "avx2"). */
    virtual const char* name() const = 0;

    /**
     * Fake-quantize a whole contiguous span: split into k1-blocks (the
     * tail block may be short) and quantize each.  in/out may alias.
     */
    virtual void quantize(const QuantPlan& plan, std::span<const float> in,
                          std::span<float> out,
                          const Rounder& rounder) const = 0;

    /**
     * Quantize one block (n <= k1), optionally capturing the integer
     * encoding.
     */
    virtual void quantize_block(const QuantPlan& plan,
                                std::span<const float> in,
                                std::span<float> out, const Rounder& rounder,
                                Pow2BlockEncoding* enc) const = 0;

    /**
     * Fused quantize+pack: quantize a whole span and emit the packed
     * block stream ([biased shared exp][sub-shifts][sign|mantissa codes]
     * per block, LSB-first) without materializing per-block heap
     * encodings.  This is the formats::pack fast path.
     */
    virtual void quantize_pack(const QuantPlan& plan,
                               std::span<const float> in,
                               const Rounder& rounder,
                               BitWriter& writer) const = 0;

    /**
     * Fused quantize+fold of a row-major [rows x cols] matrix (no block
     * straddles a row) straight into the packed-GEMM int16 execution
     * view (gemm/packed_operand.h) — the activation-side encoder, one
     * call per operand, no dequantized grid.  @p mant receives the
     * rows * cols folded mantissas M << (beta - tau); @p exp receives
     * each block's shared exponent in the grouped layout: rows in
     * groups of @p group_rows, block-major inside a group, so row r's
     * block b lands at (r / G) * blocks_per_row * G + b * G + r % G.
     * Entries of @p exp that belong to no row are not written.
     * Requires m + beta <= 15 (every M' fits int16); the encodings are
     * exactly reference_quantize_fold_block's.
     */
    virtual void quantize_fold_rows(const QuantPlan& plan, const float* in,
                                    std::size_t rows, std::size_t cols,
                                    const Rounder& rounder,
                                    std::int16_t* mant, std::int16_t* exp,
                                    std::size_t group_rows) const = 0;

    /** Dequantize one encoded block into @p out (size = mantissa count). */
    virtual void dequantize_block(const QuantPlan& plan,
                                  const Pow2BlockEncoding& enc,
                                  std::span<float> out) const = 0;

    /**
     * Fake-quantize a row-major [rows x cols] matrix whose blocks must
     * not straddle row boundaries (the nn::quantize_rows contract).
     * When cols is a whole number of k1 blocks the matrix collapses to
     * one contiguous quantize() call; ragged widths run one call per
     * row, each ending in its own short tail block — the same kernel
     * fast path either way, with the plan hoisted out of the loop.
     * in/out may alias row-for-row.
     */
    void quantize_rows(const QuantPlan& plan, const float* in, float* out,
                       std::size_t rows, std::size_t cols,
                       const Rounder& rounder) const;

    /**
     * Fused quantize+pack of a [rows x cols] matrix under the same
     * no-block-straddles-a-row contract, emitting one bit-contiguous
     * stream (row r's blocks directly follow row r-1's).  For aligned
     * widths this is byte-for-byte the flat quantize_pack stream.
     */
    void quantize_pack_rows(const QuantPlan& plan, const float* in,
                            std::size_t rows, std::size_t cols,
                            const Rounder& rounder, BitWriter& writer) const;
};

namespace detail {

/**
 * 2^e as a double.  Exponent-field assembly for the normal range; ldexp
 * handles the extremes (all-zero-block decode exponents and combined
 * packed-GEMM block exponents can leave the normal range for wide d1).
 * Shared by every kernel implementation — quantize, dequantize, and the
 * packed-GEMM block alignment — so scale arithmetic is bit-identical
 * across the scalar, AVX2, and gemm execution paths by construction.
 */
inline double
pow2_double(int e)
{
    if (e >= -1022 && e <= 1023)
        return std::bit_cast<double>(
            static_cast<std::uint64_t>(e + 1023) << 52);
    return std::ldexp(1.0, e);
}

/**
 * Fold one block's @p n signed mantissas into the execution view:
 * out[i] = mant[i] << (beta - tau of i's sub-block), the sub-block index
 * advancing every k2 elements.  Shared by the reference encoder
 * (reference_quantize_fold_block) and PackedOperand's stream decoders.
 */
inline void
fold_block(const QuantPlan& plan, const std::int32_t* mant,
           const std::uint8_t* tau, std::size_t n, std::int16_t* out)
{
    const std::size_t k2 = static_cast<std::size_t>(plan.k2);
    std::size_t s = 0, next = k2;
    for (std::size_t i = 0; i < n; ++i) {
        if (i == next) {
            ++s;
            next += k2;
        }
        // Unsigned, so the shift is defined for every int32 (a NaN's
        // INT32_MIN folds to 0); valid mantissas fit int16 exactly.
        out[i] = static_cast<std::int16_t>(
            static_cast<std::uint32_t>(mant[i]) << (plan.beta - tau[s]));
    }
}

/**
 * Emit one quantized block's fields into the packed stream — the layout
 * documented in formats/block_codec.h ([d1-bit biased shared exponent]
 * [n_sub x d2-bit sub-shifts][n x (sign | mantissa << 1) codes]).
 * Shared by every kernel's fused quantize+pack path so the bit stream
 * is implementation-invariant by construction.
 */
inline void
write_block_bits(const QuantPlan& plan, int shared_exp,
                 const std::uint8_t* taus, std::size_t n_sub,
                 const std::int32_t* mant, std::size_t n, BitWriter& w)
{
    w.write(static_cast<std::uint64_t>(shared_exp + plan.e_max), plan.d1);
    for (std::size_t s = 0; s < n_sub; ++s)
        w.write(taus[s], plan.d2);
    for (std::size_t i = 0; i < n; ++i) {
        const std::int32_t man = mant[i];
        const std::uint64_t sign = man < 0 ? 1 : 0;
        // Negated as unsigned: defined for INT32_MIN (a NaN's mantissa),
        // whose magnitude bits then write as 0.
        const std::uint32_t u = static_cast<std::uint32_t>(man);
        const std::uint64_t mag = man < 0 ? 0u - u : u;
        w.write(sign | (mag << 1), 1 + plan.m);
    }
}

/**
 * Little-endian 64-bit window of @p bytes starting at byte @p at (which
 * must be < @p size); bytes past @p size read as zero, so the final
 * window never touches memory beyond the buffer.
 */
inline std::uint64_t
load_le64(const std::uint8_t* bytes, std::size_t size, std::size_t at)
{
    std::uint64_t v = 0;
    if (size - at >= sizeof v)
        std::memcpy(&v, bytes + at, sizeof v);
    else
        std::memcpy(&v, bytes + at, size - at);
    if constexpr (std::endian::native == std::endian::big)
        v = __builtin_bswap64(v);
    return v;
}

/**
 * Read one block's fields back from the packed stream — the exact
 * inverse of write_block_bits, and the one read loop of the pow2 block
 * layout (PackedOperand's decoders, formats::unpack and the frozen row
 * decode all go through it).
 *
 * The block starts at bit @p pos of the @p size bytes at @p bytes;
 * @p pos advances past it.  @p taus receives @p n_sub sub-shifts,
 * @p mant the @p n signed mantissas.  Returns the unbiased shared
 * exponent.
 *
 * Fields come out of unaligned little-endian 64-bit window loads, as
 * many whole fields per window as fit (every field is at most 24 bits
 * wide); byte-aligned 8-bit codes (MX9) are read a byte at a time.
 * There is no bounds check per field: the caller checks once per
 * stream that the block lies inside the buffer.
 */
inline int
read_block_bits(const QuantPlan& plan, const std::uint8_t* bytes,
                std::size_t size, std::size_t& pos, std::uint8_t* taus,
                std::size_t n_sub, std::int32_t* mant, std::size_t n)
{
    std::size_t p = pos; // a local, so stores through taus cannot alias it
    // Hand @p count consecutive @p bits-wide fields to @p put.  A window
    // loaded at bit p holds at least 57 valid bits (p & 7 <= 7), so it
    // covers 57 / bits whole fields.
    auto fields = [&](std::size_t count, int bits, auto put) {
        const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
        const std::size_t per = static_cast<std::size_t>(57 / bits);
        for (std::size_t i = 0; i < count;) {
            std::uint64_t w = load_le64(bytes, size, p >> 3) >> (p & 7);
            const std::size_t end = std::min(count, i + per);
            p += (end - i) * static_cast<std::size_t>(bits);
            for (; i < end; ++i, w >>= bits)
                put(i, w & mask);
        }
    };
    const int shared_exp =
        static_cast<int>((load_le64(bytes, size, p >> 3) >> (p & 7)) &
                         ((std::uint64_t{1} << plan.d1) - 1)) -
        plan.e_max;
    p += static_cast<std::size_t>(plan.d1);
    if (plan.d2 == 0) {
        std::fill_n(taus, n_sub, std::uint8_t{0});
    } else {
        fields(n_sub, plan.d2, [&](std::size_t s, std::uint64_t tau) {
            taus[s] = static_cast<std::uint8_t>(tau);
        });
    }
    if (plan.m == 7 && (p & 7) == 0) {
        // One code per byte; __restrict lets the loop vectorize (a byte
        // pointer may otherwise alias the mantissa stores).
        const std::uint8_t* __restrict code = bytes + (p >> 3);
        std::int32_t* __restrict out = mant;
        for (std::size_t i = 0; i < n; ++i) {
            const std::int32_t mag = code[i] >> 1;
            out[i] = (code[i] & 1) != 0 ? -mag : mag;
        }
        p += 8 * n;
    } else {
        fields(n, 1 + plan.m, [&](std::size_t i, std::uint64_t code) {
            const auto mag = static_cast<std::int32_t>(code >> 1);
            mant[i] = (code & 1) != 0 ? -mag : mag;
        });
    }
    pos = p;
    return shared_exp;
}

} // namespace detail

} // namespace kernels
} // namespace core
} // namespace mx
