/**
 * @file
 * AVX2 PackedGemmKernel.  Bit-identical to the scalar reference by
 * construction: every step up to the one double->float rounding per
 * k1-block pair is exact integer arithmetic, so reassociating it across
 * SIMD lanes cannot change the result.
 *
 * Fast path (detail::simd_fast_path — k1 = 16 with int32 headroom: the
 * MX family, MSFP16 and their custom neighbours, any d2):
 *   - one _mm256_madd_epi16 multiplies a block's 16 folded int16
 *     mantissa pairs and adds adjacent products; the sub-block shifts
 *     are already inside the mantissas (packed_operand.h), so the 8
 *     int32 lanes reduce horizontally straight to the block integer.
 *
 * The tile microkernel is register-blocked: kRegCols output columns per
 * pass share each A-side mantissa load while their FP32 partial sums
 * stay in registers, and the kc panel loop (kPanelBlocks) keeps the
 * register block's B rows cache-resident across the sweep.  Everything
 * off the fast path — ragged tail blocks, non-16 k1, wide mantissas —
 * delegates to the scalar tile kernel or detail::block_contrib, the
 * same code the reference runs.
 *
 * This translation unit is the only one in mx_gemm compiled with
 * -mavx2; callers reach it through gemm::active_gemm_kernel(), which is
 * slaved to the core/kernels runtime CPU dispatch.
 */

#include "gemm/packed_gemm.h"

#if defined(MX_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>

namespace mx {
namespace gemm {

namespace {

/** Horizontal sum of 8 int32 lanes (exact). */
inline std::int32_t
hsum_epi32(__m256i v)
{
    __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v),
                              _mm256_extracti128_si256(v, 1));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
    return _mm_cvtsi128_si32(s);
}

/** Output columns per register block (the microkernel's j unroll). */
constexpr std::size_t kRegCols = 4;

/** A block's 16 int16 mantissas. */
inline __m256i
load_mant(const std::int16_t* p)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

class Avx2GemmKernel final : public PackedGemmKernel
{
  public:
    const char* name() const override { return "avx2"; }

    void
    gemm_tile(const GemmPlan& plan, const PackedOperand& a,
              const PackedOperand& b, const Tile& t, float* c,
              std::size_t ldc) const override
    {
        if (!detail::simd_fast_path(plan)) {
            scalar_gemm_kernel().gemm_tile(plan, a, b, t, c, ldc);
            return;
        }
        const std::size_t cols = a.cols();
        const std::size_t full = cols / 16; // whole 16-element blocks
        const std::size_t nblocks = (cols + 15) / 16;

        for (std::size_t p0 = 0; p0 < nblocks; p0 += kPanelBlocks) {
            const std::size_t p1 = std::min(nblocks, p0 + kPanelBlocks);
            const std::size_t pfull = std::min(p1, full);
            const bool first = p0 == 0;
            for (std::size_t i = t.i0; i < t.i1; ++i) {
                const std::int16_t* am = a.row_mantissa(i);
                const ExpRow aexp = a.row_exp(i);
                float* crow = c + i * ldc;
                for (std::size_t j0 = t.j0; j0 < t.j1; j0 += kRegCols) {
                    const std::size_t jn = std::min(kRegCols, t.j1 - j0);
                    const std::int16_t* bm[kRegCols];
                    ExpRow bexp[kRegCols];
                    float acc[kRegCols];
                    for (std::size_t jj = 0; jj < jn; ++jj) {
                        bm[jj] = b.row_mantissa(j0 + jj);
                        bexp[jj] = b.row_exp(j0 + jj);
                        acc[jj] = first ? 0.0f : crow[j0 + jj];
                    }
                    for (std::size_t blk = p0; blk < pfull; ++blk) {
                        const std::size_t off = blk * 16;
                        const __m256i ma = load_mant(am + off);
                        for (std::size_t jj = 0; jj < jn; ++jj) {
                            const std::int64_t blki = hsum_epi32(
                                _mm256_madd_epi16(ma,
                                                  load_mant(bm[jj] + off)));
                            acc[jj] += static_cast<float>(
                                static_cast<double>(blki) *
                                core::kernels::detail::pow2_double(
                                    aexp[blk] + bexp[jj][blk] -
                                    plan.exp_bias));
                        }
                    }
                    // The ragged tail block (index `full`) lives in the
                    // last panel, after its full blocks: order ascends.
                    if (p1 > full)
                        for (std::size_t jj = 0; jj < jn; ++jj)
                            acc[jj] += detail::block_contrib(
                                plan, am, aexp[full], bm[jj],
                                bexp[jj][full], full * 16,
                                cols - full * 16);
                    for (std::size_t jj = 0; jj < jn; ++jj)
                        crow[j0 + jj] = acc[jj];
                }
            }
        }
    }
};

} // namespace

const PackedGemmKernel*
avx2_gemm_kernel()
{
    static const Avx2GemmKernel kernel;
    return &kernel;
}

} // namespace gemm
} // namespace mx

#else // !MX_HAVE_AVX2

namespace mx {
namespace gemm {

const PackedGemmKernel*
avx2_gemm_kernel()
{
    return nullptr;
}

} // namespace gemm
} // namespace mx

#endif // MX_HAVE_AVX2
