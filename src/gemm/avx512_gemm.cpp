/**
 * @file
 * AVX-512/VNNI PackedGemmKernel.  Bit-identical to the scalar and AVX2
 * kernels by construction — the same exact-integer argument (every step
 * up to the one double->float rounding per k1-block pair is exact), now
 * applied across 512-bit lanes.
 *
 * Fast path (detail::simd_fast_path, shared with AVX2): one vector
 * lane per OUTPUT COLUMN.  For one A row and a group of 16 B rows, per
 * block pair (32 folded int16 mantissas, packed_operand.h):
 *   - 16 _mm512_dpwssd_epi32, one per B row, multiply the pair's 32
 *     mantissa products and add adjacent ones (the sub-block shifts are
 *     already folded into the mantissas, so no shifter runs here);
 *   - a transpose tree of unpack/shuffle adds (reduce_columns, 44 ops)
 *     turns the 16 vectors into two: lane r of each holds B row r's
 *     integer for one block of the pair;
 *   - the contract's per-block epilogue float(double(blk) * 2^e) runs
 *     in vector form: cvtepi32_pd, 2^e built from its exponent bits
 *     (slli_epi64), mul_pd, cvtpd_ps — the same IEEE operations as the
 *     scalar expression, so the same bits;
 *   - the floats add into a per-column FP32 accumulator in ascending
 *     block order, and the row of 16 results leaves with one (masked)
 *     store.
 * The 16 B rows' exponents of one block load contiguously from the
 * operand's grouped exponent layout.  A trailing odd block or a ragged
 * tail is the same step with masked mantissa loads (lanes past the row
 * end read 0), so it contributes exactly its own products; a ragged
 * column group clamps its surplus lanes to a live row and masks them
 * out of the store.  Plans whose exponent fields can leave the normal
 * double range (d1 >= 10) take the scalar pow2_double / ldexp epilogue
 * per lane instead.
 *
 * This translation unit is the only one in mx_gemm compiled with
 * -mavx512f/-mavx512bw/-mavx512vnni; callers reach it through
 * gemm::active_gemm_kernel(), which is slaved to the core/kernels
 * runtime CPU dispatch (the probe requires avx512f, avx512bw and
 * avx512vnni before this kernel is ever selected).
 */

#include "gemm/packed_gemm.h"

#if defined(MX_HAVE_AVX512)

#include <immintrin.h>

#include <algorithm>

#include "core/check.h"

namespace mx {
namespace gemm {

namespace {

/** B rows per register block: one per 32-bit lane. */
constexpr std::size_t kLanes = 16;
static_assert(kLanes == kExpGroupRows);

// Block pairs never straddle a kc panel.
static_assert(kPanelBlocks % 2 == 0);

/** A block pair's 32 int16 mantissas. */
inline __m512i
load_mant2(const std::int16_t* p)
{
    return _mm512_loadu_si512(reinterpret_cast<const void*>(p));
}

/** The first @p n < 32 of a block pair's mantissas; the rest read 0
 *  and the load never touches memory past them. */
inline __m512i
load_mant2(const std::int16_t* p, std::size_t n)
{
    return _mm512_maskz_loadu_epi16(static_cast<__mmask32>((1u << n) - 1),
                                    p);
}

/**
 * Transpose-reduce 16 dpwssd outputs: d[r] holds B row r's pairwise sums
 * of a block pair (lanes 0-7 the first block, 8-15 the second).  On
 * return lane r of @p lo / @p hi is row r's first / second block
 * integer.  Exact: int32 adds of partial sums bounded by the block sum's
 * headroom (simd_fast_path).
 */
inline void
reduce_columns(const __m512i (&d)[kLanes], __m512i& lo, __m512i& hi)
{
    // Rows 2q, 2q+1 per 128-bit segment: (a0+a2, b0+b2, a1+a3, b1+b3).
    __m512i t[8];
    for (std::size_t q = 0; q < 8; ++q)
        t[q] = _mm512_add_epi32(_mm512_unpacklo_epi32(d[2 * q], d[2 * q + 1]),
                                _mm512_unpackhi_epi32(d[2 * q], d[2 * q + 1]));
    // Rows 4q..4q+3, one segment sum each, per 128-bit segment S0..S3.
    __m512i u[4];
    for (std::size_t q = 0; q < 4; ++q)
        u[q] = _mm512_add_epi32(_mm512_unpacklo_epi64(t[2 * q], t[2 * q + 1]),
                                _mm512_unpackhi_epi64(t[2 * q], t[2 * q + 1]));
    // Segments S0+S1 form the first block, S2+S3 the second:
    // w01 = [u0.first, u0.second, u1.first, u1.second], same for w23.
    const __m512i w01 = _mm512_add_epi32(
        _mm512_shuffle_i32x4(u[0], u[1], _MM_SHUFFLE(2, 0, 2, 0)),
        _mm512_shuffle_i32x4(u[0], u[1], _MM_SHUFFLE(3, 1, 3, 1)));
    const __m512i w23 = _mm512_add_epi32(
        _mm512_shuffle_i32x4(u[2], u[3], _MM_SHUFFLE(2, 0, 2, 0)),
        _mm512_shuffle_i32x4(u[2], u[3], _MM_SHUFFLE(3, 1, 3, 1)));
    lo = _mm512_shuffle_i32x4(w01, w23, _MM_SHUFFLE(2, 0, 2, 0));
    hi = _mm512_shuffle_i32x4(w01, w23, _MM_SHUFFLE(3, 1, 3, 1));
}

/**
 * True when every block exponent the plan admits, Ea + Eb - exp_bias
 * with each E anywhere in its d1-bit field [-e_max, 2^d1 - 1 - e_max],
 * is a normal double exponent in [-1022, 1023] — the window in which
 * add_block's bit-built 2^e equals pow2_double(e).
 */
bool
pow2_fits_double(const GemmPlan& plan)
{
    const int lo = -plan.a.e_max - plan.b.e_max - plan.exp_bias;
    const int hi = ((1 << plan.a.d1) - 1 - plan.a.e_max) +
                   ((1 << plan.b.d1) - 1 - plan.b.e_max) - plan.exp_bias;
    return lo >= -1022 && hi <= 1023;
}

/** 16 output columns' FP32 sums as two 8-lane halves: the epilogue
 *  rounds 8 doubles to floats at a time, so the halves add without a
 *  recombine; they merge once, for the store. */
struct ColumnAcc
{
    __m256 lo, hi;
};

inline ColumnAcc
load_acc(bool first, __mmask16 live, const float* c)
{
    if (first)
        return {_mm256_setzero_ps(), _mm256_setzero_ps()};
    const __m512d v = _mm512_castps_pd(_mm512_maskz_loadu_ps(live, c));
    return {_mm256_castpd_ps(_mm512_castpd512_pd256(v)),
            _mm256_castpd_ps(_mm512_extractf64x4_pd(v, 1))};
}

inline void
store_acc(const ColumnAcc& acc, __mmask16 live, float* c)
{
    _mm512_mask_storeu_ps(
        c, live,
        _mm512_castpd_ps(_mm512_insertf64x4(
            _mm512_castpd256_pd512(_mm256_castps_pd(acc.lo)),
            _mm256_castps_pd(acc.hi), 1)));
}

/** float(double(b) * 2^e) in 8 lanes, @p bits holding e + 1023 per
 *  epi64 lane: 2^e is built from its bit pattern, exact for e in
 *  [-1022, 1023], then the same multiply and rounding as the scalar
 *  expression. */
inline __m256
scale8(__m256i b, __m512i bits)
{
    return _mm512_cvtpd_ps(_mm512_mul_pd(
        _mm512_cvtepi32_pd(b),
        _mm512_castsi512_pd(_mm512_slli_epi64(bits, 52))));
}

/**
 * acc += float(double(blk) * 2^e) in every lane — the contract's
 * per-block exponent alignment for 16 output columns — with
 * e = bexp[lane] + a_share (a_share = Ea - exp_bias).  With @p vec the
 * vector path runs; otherwise each lane calls pow2_double (the ldexp
 * fallback) like the scalar kernel.
 */
inline void
add_block(ColumnAcc& acc, __m512i blk, const std::int16_t* bexp,
          int a_share, bool vec)
{
    if (!vec) {
        alignas(64) std::int32_t bv[kLanes];
        alignas(32) float f[kLanes];
        _mm512_store_si512(bv, blk);
        for (std::size_t l = 0; l < kLanes; ++l)
            f[l] = static_cast<float>(
                static_cast<double>(bv[l]) *
                core::kernels::detail::pow2_double(bexp[l] + a_share));
        acc.lo = _mm256_add_ps(acc.lo, _mm256_load_ps(f));
        acc.hi = _mm256_add_ps(acc.hi, _mm256_load_ps(f + 8));
        return;
    }
    const __m512i abits = _mm512_set1_epi64(a_share + 1023);
    const auto bits = [&](const std::int16_t* e) {
        return _mm512_add_epi64(
            _mm512_cvtepi16_epi64(
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(e))),
            abits);
    };
    acc.lo = _mm256_add_ps(
        acc.lo, scale8(_mm512_castsi512_si256(blk), bits(bexp)));
    acc.hi = _mm256_add_ps(
        acc.hi, scale8(_mm512_extracti64x4_epi64(blk, 1), bits(bexp + 8)));
}

class Avx512GemmKernel final : public PackedGemmKernel
{
  public:
    const char* name() const override { return "avx512"; }

    void
    gemm_tile(const GemmPlan& plan, const PackedOperand& a,
              const PackedOperand& b, const Tile& t, float* c,
              std::size_t ldc) const override
    {
        if (!detail::simd_fast_path(plan)) {
            scalar_gemm_kernel().gemm_tile(plan, a, b, t, c, ldc);
            return;
        }
        MX_CHECK_ARG(t.j0 % kLanes == 0,
                     "avx512 gemm_tile: tile column " << t.j0
                         << " is off the exponent-group grid");
        const std::size_t cols = a.cols();
        const std::size_t nblocks = (cols + 15) / 16;
        const bool vec = pow2_fits_double(plan);
        const __m512i zero = _mm512_setzero_si512();

        for (std::size_t p0 = 0; p0 < nblocks; p0 += kPanelBlocks) {
            const std::size_t p1 = std::min(nblocks, p0 + kPanelBlocks);
            const bool first = p0 == 0;
            // One 16-column group's panel slice stays L1-resident while
            // every A row of the tile sweeps it.
            for (std::size_t j0 = t.j0; j0 < t.j1; j0 += kLanes) {
                // Surplus lanes of a ragged group recompute the last
                // live row and are masked out of the store.
                const std::size_t jn = std::min(kLanes, t.j1 - j0);
                const auto live = static_cast<__mmask16>((1u << jn) - 1);
                const std::int16_t* bm[kLanes];
                for (std::size_t r = 0; r < kLanes; ++r)
                    bm[r] = b.row_mantissa(j0 + std::min(r, jn - 1));
                const std::int16_t* bexp = b.group_exp(j0 / kLanes);
                for (std::size_t i = t.i0; i < t.i1; ++i) {
                    const std::int16_t* am = a.row_mantissa(i);
                    const ExpRow aexp = a.row_exp(i);
                    float* cg = c + i * ldc + j0;
                    ColumnAcc acc = load_acc(first, live, cg);
                    for (std::size_t blk = p0; blk < p1; blk += 2) {
                        const std::size_t off = blk * 16;
                        const std::size_t left = cols - off;
                        __m512i d[kLanes];
                        if (left >= 32) {
                            const __m512i ma = load_mant2(am + off);
                            for (std::size_t r = 0; r < kLanes; ++r)
                                d[r] = _mm512_dpwssd_epi32(
                                    zero, ma, load_mant2(bm[r] + off));
                        } else { // odd trailing block and/or ragged tail
                            const __m512i ma = load_mant2(am + off, left);
                            for (std::size_t r = 0; r < kLanes; ++r)
                                d[r] = _mm512_dpwssd_epi32(
                                    zero, ma,
                                    load_mant2(bm[r] + off, left));
                        }
                        __m512i lo, hi;
                        reduce_columns(d, lo, hi);
                        add_block(acc, lo, bexp + blk * kLanes,
                                  aexp[blk] - plan.exp_bias, vec);
                        if (blk + 1 < p1)
                            add_block(acc, hi, bexp + (blk + 1) * kLanes,
                                      aexp[blk + 1] - plan.exp_bias, vec);
                    }
                    store_acc(acc, live, cg);
                }
            }
        }
    }
};

} // namespace

const PackedGemmKernel*
avx512_gemm_kernel()
{
    static const Avx512GemmKernel kernel;
    return &kernel;
}

} // namespace gemm
} // namespace mx

#else // !MX_HAVE_AVX512

namespace mx {
namespace gemm {

const PackedGemmKernel*
avx512_gemm_kernel()
{
    return nullptr;
}

} // namespace gemm
} // namespace mx

#endif // MX_HAVE_AVX512
