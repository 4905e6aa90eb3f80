/**
 * @file
 * AVX2 QuantKernel.  Bit-identical to the scalar reference by
 * construction: every lane performs the same IEEE double operations the
 * reference performs per element (multiply by an exact power of two,
 * round-to-nearest-even or truncate, saturate, multiply back, narrow to
 * float), and every case the vector path cannot mirror exactly is
 * delegated to the reference:
 *
 *  - NearestAway rounding (libm round() semantics) and Stochastic
 *    rounding (per-element RNG draw order) run the reference loop;
 *  - blocks whose shared exponent is so low that zero/subnormal
 *    sub-blocks would not clamp to the maximum shift take the reference
 *    path (shared_e < beta - 127 — impossible for normal-range data);
 *  - NaN-bearing blocks take the reference path (minps/maxps NaN
 *    semantics differ from std::min/std::max);
 *  - formats with k1 beyond the stack scratch size fall back entirely.
 *
 * tests/test_kernels.cpp asserts the equivalence over randomized
 * formats, sizes, magnitudes, and rounding modes.
 *
 * quantize_fold_rows (the packed-GEMM activation encoder) runs the same
 * per-lane arithmetic with every block-level decision made in
 * registers (avx2_fold_block); it delegates a block in the same cases,
 * with an infinity added to NaN.  tests/test_gemm.cpp
 * (PackedOperand.DecodeEqualsQuantizeAndRowOffsetsAreUniform) and the
 * fuzz harness's encoder leg assert its equivalence.
 *
 * This translation unit is the only one compiled with -mavx2; callers
 * reach it through kernels/dispatch.h, which probes the CPU at runtime.
 */

#include "core/kernels/dispatch.h"
#include "core/kernels/quant_kernel.h"

#if defined(MX_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/check.h"

namespace mx {
namespace core {
namespace kernels {

namespace {

/** Stack capacity for per-block scratch; larger k1 delegates. */
constexpr std::size_t kStackBlock = 512;

/** 2^e as a double (the shared detail::pow2_double). */
inline double
pow2d(int e)
{
    return detail::pow2_double(e);
}

/** Horizontal max of 8 floats. */
inline float
hmax(__m256 v)
{
    __m128 m = _mm_max_ps(_mm256_castps256_ps128(v),
                          _mm256_extractf128_ps(v, 1));
    m = _mm_max_ps(m, _mm_movehl_ps(m, m));
    m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
    return _mm_cvtss_f32(m);
}

/**
 * The vectorized element loop: q = round(|x| * inv_step) saturated to
 * mant_max, out = sign(x) * q * step.  ROUND is an _MM_FROUND_* policy
 * (nearest-even or toward-zero); the scalar tail applies the identical
 * double-precision operations, so lanes and tail agree bit-for-bit.
 */
template <int ROUND>
void
element_loop(const float* in, const float* absv, std::size_t n,
             const double* step, const double* inv_step, double mant_max_d,
             float* out, std::int32_t* mant_out)
{
    const __m256 sign_mask = _mm256_set1_ps(-0.0f);
    const __m256d mmax = _mm256_set1_pd(mant_max_d);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 v = _mm256_loadu_ps(in + i);
        const __m256 sign = _mm256_and_ps(v, sign_mask);
        const __m256 a = _mm256_loadu_ps(absv + i);
        const __m256d a_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(a));
        const __m256d a_hi = _mm256_cvtps_pd(_mm256_extractf128_ps(a, 1));
        __m256d q_lo = _mm256_round_pd(
            _mm256_mul_pd(a_lo, _mm256_loadu_pd(inv_step + i)),
            ROUND | _MM_FROUND_NO_EXC);
        __m256d q_hi = _mm256_round_pd(
            _mm256_mul_pd(a_hi, _mm256_loadu_pd(inv_step + i + 4)),
            ROUND | _MM_FROUND_NO_EXC);
        q_lo = _mm256_min_pd(q_lo, mmax);
        q_hi = _mm256_min_pd(q_hi, mmax);
        const __m256d d_lo = _mm256_mul_pd(q_lo, _mm256_loadu_pd(step + i));
        const __m256d d_hi =
            _mm256_mul_pd(q_hi, _mm256_loadu_pd(step + i + 4));
        const __m256 deq = _mm256_set_m128(_mm256_cvtpd_ps(d_hi),
                                           _mm256_cvtpd_ps(d_lo));
        _mm256_storeu_ps(out + i, _mm256_or_ps(deq, sign));
        if (mant_out) {
            // q is integral and <= 2^24 - 1, so the int conversion is
            // exact under any MXCSR rounding mode.
            const __m256i q32 = _mm256_set_m128i(_mm256_cvtpd_epi32(q_hi),
                                                 _mm256_cvtpd_epi32(q_lo));
            const __m256i neg =
                _mm256_srai_epi32(_mm256_castps_si256(sign), 31);
            _mm256_storeu_si256(
                reinterpret_cast<__m256i*>(mant_out + i),
                _mm256_sub_epi32(_mm256_xor_si256(q32, neg), neg));
        }
    }
    for (; i < n; ++i) {
        const double a = static_cast<double>(absv[i]);
        double q = ROUND == _MM_FROUND_TO_ZERO ? std::trunc(a * inv_step[i])
                                               : std::nearbyint(a * inv_step[i]);
        q = std::min(q, mant_max_d);
        const double deq = q * step[i];
        const bool neg = std::signbit(in[i]);
        out[i] = static_cast<float>(neg ? -deq : deq);
        if (mant_out)
            mant_out[i] = static_cast<std::int32_t>(neg ? -q : q);
    }
}

/**
 * Quantize one block (n <= k1 <= kStackBlock).  Returns the shared
 * exponent.  Falls back to the reference for the exactness edge cases
 * documented at the top of the file.
 */
int
avx2_quantize_block(const QuantPlan& plan, const float* in, std::size_t n,
                    float* out, const Rounder& rounder,
                    std::uint8_t* tau_out, std::int32_t* mant_out)
{
    MX_CHECK_ARG(n <= static_cast<std::size_t>(plan.k1) && n <= kStackBlock,
                 "quantize_block: block larger than k1");
    alignas(32) float absv[kStackBlock];
    alignas(32) double step[kStackBlock];
    alignas(32) double inv_step[kStackBlock];
    std::uint8_t tau_local[kStackBlock];

    // |x| pass + block amax.  NaNs are tracked explicitly (maxps does
    // not propagate them stickily) so NaN-bearing blocks can take the
    // reference path — both kernels then agree on such inputs.
    const __m256 abs_mask =
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
    __m256 acc = _mm256_setzero_ps();
    __m256 nan_acc = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 a = _mm256_and_ps(_mm256_loadu_ps(in + i), abs_mask);
        _mm256_storeu_ps(absv + i, a);
        acc = _mm256_max_ps(acc, a);
        nan_acc = _mm256_or_ps(nan_acc, _mm256_cmp_ps(a, a, _CMP_UNORD_Q));
    }
    bool has_nan = _mm256_movemask_ps(nan_acc) != 0;
    float amax = hmax(acc);
    for (; i < n; ++i) {
        const float a = std::fabs(in[i]);
        absv[i] = a;
        amax = std::max(amax, a);
        has_nan |= a != a;
    }

    if (amax == 0.0f || has_nan)
        return reference_quantize_block(plan, in, n, out, rounder, tau_out,
                                        mant_out);
    int ex;
    std::frexp(amax, &ex);
    const int shared_e = std::clamp(ex - 1, plan.e_min, plan.e_max);
    if (shared_e < plan.beta - 127) {
        // A zero/subnormal sub-block would not clamp to tau = beta; let
        // the reference handle this (requires |amax| below ~2^-112).
        return reference_quantize_block(plan, in, n, out, rounder, tau_out,
                                        mant_out);
    }

    // Sub-block shifts from the float exponent field: for normal
    // sub-maxima the field is exactly floor(log2()); zero or subnormal
    // sub-maxima read as -127, which the guard above proves clamps to
    // beta just like the reference's explicit handling.
    std::uint8_t* taus = tau_out ? tau_out : tau_local;
    const std::size_t k2 = static_cast<std::size_t>(plan.k2);
    const std::size_t n_sub = plan.num_sub_blocks(n);
    for (std::size_t sub = 0; sub < n_sub; ++sub) {
        const std::size_t lo = sub * k2;
        const std::size_t hi = std::min(n, lo + k2);
        float sub_amax = 0.0f;
        for (std::size_t j = lo; j < hi; ++j)
            sub_amax = std::max(sub_amax, absv[j]);
        const int sub_e =
            static_cast<int>(std::bit_cast<std::uint32_t>(sub_amax) >> 23) -
            127;
        const int tau = std::clamp(shared_e - sub_e, 0, plan.beta);
        taus[sub] = static_cast<std::uint8_t>(tau);
        const int shift = shared_e - tau - (plan.m - 1);
        const double s = pow2d(shift);
        const double is = pow2d(-shift);
        for (std::size_t j = lo; j < hi; ++j) {
            step[j] = s;
            inv_step[j] = is;
        }
    }

    if (rounder.mode() == RoundingMode::TowardZero)
        element_loop<_MM_FROUND_TO_ZERO>(in, absv, n, step, inv_step,
                                         plan.mant_max_d, out, mant_out);
    else
        element_loop<_MM_FROUND_TO_NEAREST_INT>(in, absv, n, step, inv_step,
                                                plan.mant_max_d, out,
                                                mant_out);
    return shared_e;
}

/**
 * Lanes [0, @p left) of the 8 floats at @p p as raw bits, later lanes
 * zero; a short chunk is a masked load, which never touches memory past
 * its last live lane.
 */
inline __m256i
load_chunk(const float* p, std::size_t left)
{
    if (left >= 8)
        return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    alignas(32) static constexpr std::int32_t kLive[16] = {
        -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0};
    const __m256i live =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(kLive + 8 - left));
    return _mm256_castps_si256(_mm256_maskload_ps(p, live));
}

/** Horizontal max of 8 int32 lanes. */
inline std::int32_t
hmax_epi32(__m256i v)
{
    __m128i m = _mm_max_epi32(_mm256_castsi256_si128(v),
                              _mm256_extracti128_si256(v, 1));
    m = _mm_max_epi32(m, _mm_shuffle_epi32(m, 0x4E));
    m = _mm_max_epi32(m, _mm_shuffle_epi32(m, 0xB1));
    return _mm_cvtsi128_si32(m);
}

/**
 * Encode one block (n <= k1 <= kStackBlock) straight into the int16
 * execution view: @p out receives the n folded mantissas
 * M << (beta - tau), and the shared exponent is returned.  @p room is
 * how many int16s from @p out the operand still holds: a short final
 * chunk stores all 8 lanes when they fit (the lanes past n land on
 * elements the row walk writes later) and goes through a scratch copy
 * only at the very end of the operand.
 *
 * The arithmetic is avx2_quantize_block's — per lane, q = round(|x| *
 * 2^(tau + m - 1 - shared_e)) in IEEE double, saturated to mant_max —
 * but the block maximum, the sub-block maxima and both exponents come
 * from integer compares of the |x| bit patterns (equal to the float
 * order for every non-NaN value), all in registers.  Blocks the vector
 * path cannot mirror exactly go to reference_quantize_fold_block: a NaN
 * or an infinity (the reference takes its exponent from frexp, whose
 * exponent for an infinity is unspecified) and shared_e < beta - 127.
 * An all-zero block is written inline as the reference's encoding.
 */
template <int ROUND>
[[gnu::always_inline]] inline int
avx2_fold_block(const QuantPlan& plan, const float* in, std::size_t n,
                const Rounder& rounder, std::int16_t* out, std::size_t room,
                std::int32_t* tau_table)
{
    const __m256i abs_mask = _mm256_set1_epi32(0x7fffffff);
    __m256i acc = _mm256_setzero_si256();
    for (std::size_t i = 0; i < n; i += 8)
        acc = _mm256_max_epi32(
            acc, _mm256_and_si256(load_chunk(in + i, n - i), abs_mask));
    const auto amax = static_cast<std::uint32_t>(hmax_epi32(acc));
    if (amax == 0) {
        std::fill_n(out, n, std::int16_t{0});
        return plan.e_min;
    }
    if (amax >= 0x7f800000u) // NaN or +-Inf
        return reference_quantize_fold_block(plan, in, n, rounder, out);
    // floor(log2(amax)): the exponent field of a normal value, the top
    // set bit of a subnormal one (value = bits * 2^-149).
    const int raw_e = amax >= 0x00800000u
        ? static_cast<int>(amax >> 23) - 127
        : 31 - std::countl_zero(amax) - 149;
    const int shared_e = std::clamp(raw_e, plan.e_min, plan.e_max);
    if (shared_e < plan.beta - 127)
        return reference_quantize_fold_block(plan, in, n, rounder, out);

    // Sub-block shifts.  Zero or subnormal sub-maxima read exponent
    // -127, which the guard above proves clamps to beta just like the
    // reference's explicit handling.  A k2 that divides the 8-lane
    // chunk folds its sub-block maxima in registers; any other k2 reads
    // per-element shifts from a table built here.
    const std::size_t k2 = static_cast<std::size_t>(plan.k2);
    const bool in_reg = plan.beta == 0 || 8 % k2 == 0;
    if (!in_reg) {
        for (std::size_t lo = 0; lo < n; lo += k2) {
            const std::size_t hi = std::min(n, lo + k2);
            std::uint32_t sub = 0;
            for (std::size_t j = lo; j < hi; ++j)
                sub = std::max(sub, std::bit_cast<std::uint32_t>(in[j]) &
                                        0x7fffffffu);
            const int tau = std::clamp(
                shared_e - (static_cast<int>(sub >> 23) - 127), 0,
                plan.beta);
            std::fill(tau_table + lo, tau_table + hi, tau);
        }
        // The dead lanes of a short final chunk read a defined shift.
        std::fill(tau_table + n, tau_table + (n + 7) / 8 * 8, 0);
    }

    const __m256i v_shared = _mm256_set1_epi32(shared_e + 127);
    const __m256i v_zero = _mm256_setzero_si256();
    const __m256i v_beta = _mm256_set1_epi32(plan.beta);
    // 2^(tau + m - 1 - shared_e) as a double: its biased exponent field.
    const __m256i v_scale_bias =
        _mm256_set1_epi64x(1023 + plan.m - 1 - shared_e);
    const __m256d v_mmax = _mm256_set1_pd(plan.mant_max_d);
    for (std::size_t i = 0; i < n; i += 8) {
        const __m256i x = load_chunk(in + i, n - i);
        const __m256i a = _mm256_and_si256(x, abs_mask);
        __m256i tau = v_zero;
        if (!in_reg) {
            tau = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(tau_table + i));
        } else if (plan.beta != 0) {
            __m256i sub = a;
            if (k2 >= 2)
                sub = _mm256_max_epi32(sub, _mm256_shuffle_epi32(sub, 0xB1));
            if (k2 >= 4)
                sub = _mm256_max_epi32(sub, _mm256_shuffle_epi32(sub, 0x4E));
            if (k2 >= 8)
                sub = _mm256_max_epi32(
                    sub, _mm256_permute2x128_si256(sub, sub, 0x01));
            // tau = clamp(shared_e - sub_e, 0, beta), sub_e = field - 127.
            tau = _mm256_min_epi32(
                _mm256_max_epi32(
                    _mm256_sub_epi32(v_shared, _mm256_srli_epi32(sub, 23)),
                    v_zero),
                v_beta);
        }
        const __m256 af = _mm256_castsi256_ps(a);
        auto half = [&](__m128 a4, __m128i tau4) {
            const __m256d scale = _mm256_castsi256_pd(_mm256_slli_epi64(
                _mm256_add_epi64(_mm256_cvtepi32_epi64(tau4), v_scale_bias),
                52));
            const __m256d q = _mm256_min_pd(
                _mm256_round_pd(_mm256_mul_pd(_mm256_cvtps_pd(a4), scale),
                                ROUND | _MM_FROUND_NO_EXC),
                v_mmax);
            // q is integral and <= 2^23 - 1: the conversion is exact.
            return _mm256_cvtpd_epi32(q);
        };
        __m256i q = _mm256_set_m128i(
            half(_mm256_extractf128_ps(af, 1),
                 _mm256_extracti128_si256(tau, 1)),
            half(_mm256_castps256_ps128(af), _mm256_castsi256_si128(tau)));
        // Fold, then the sign of x (-0.0 reads negative and yields 0).
        q = _mm256_sign_epi32(
            _mm256_sllv_epi32(q, _mm256_sub_epi32(v_beta, tau)), x);
        const __m128i packed = _mm_packs_epi32(
            _mm256_castsi256_si128(q), _mm256_extracti128_si256(q, 1));
        if (room - i >= 8) {
            _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), packed);
        } else {
            alignas(16) std::int16_t last[8];
            _mm_store_si128(reinterpret_cast<__m128i*>(last), packed);
            std::copy_n(last, std::min<std::size_t>(n - i, 8), out + i);
        }
    }
    return shared_e;
}

template <int ROUND>
void
avx2_fold_rows(const QuantPlan& plan, const float* in, std::size_t rows,
               std::size_t cols, const Rounder& rounder, std::int16_t* mant,
               std::int16_t* exp, std::size_t group_rows)
{
    alignas(32) std::int32_t tau_table[kStackBlock];
    const std::size_t k1 = static_cast<std::size_t>(plan.k1);
    const std::size_t bpr = (cols + k1 - 1) / k1;
    const std::size_t total = rows * cols;
    for (std::size_t r = 0; r < rows; ++r) {
        std::int16_t* e =
            exp + (r / group_rows) * bpr * group_rows + r % group_rows;
        for (std::size_t off = 0; off < cols; off += k1, e += group_rows) {
            const std::size_t at = r * cols + off;
            const std::size_t n = std::min(k1, cols - off);
            // The MX block width gets its own copy with n known, so its
            // two-chunk loops unroll.
            *e = static_cast<std::int16_t>(
                n == 16 ? avx2_fold_block<ROUND>(plan, in + at, 16, rounder,
                                                 mant + at, total - at,
                                                 tau_table)
                        : avx2_fold_block<ROUND>(plan, in + at, n, rounder,
                                                 mant + at, total - at,
                                                 tau_table));
        }
    }
}

/** True when the vector path can honour @p rounder exactly. */
bool
vectorizable(const Rounder& rounder)
{
    return rounder.mode() == RoundingMode::NearestEven ||
           rounder.mode() == RoundingMode::TowardZero;
}

class Avx2Kernel final : public QuantKernel
{
  public:
    const char* name() const override { return "avx2"; }

    void
    quantize(const QuantPlan& plan, std::span<const float> in,
             std::span<float> out, const Rounder& rounder) const override
    {
        MX_CHECK_ARG(in.size() == out.size(), "quantize: size mismatch");
        const std::size_t k1 = static_cast<std::size_t>(plan.k1);
        if (!vectorizable(rounder) || k1 > kStackBlock) {
            scalar_kernel().quantize(plan, in, out, rounder);
            return;
        }
        for (std::size_t off = 0; off < in.size(); off += k1) {
            const std::size_t n = std::min(k1, in.size() - off);
            avx2_quantize_block(plan, in.data() + off, n, out.data() + off,
                                rounder, nullptr, nullptr);
        }
    }

    void
    quantize_block(const QuantPlan& plan, std::span<const float> in,
                   std::span<float> out, const Rounder& rounder,
                   Pow2BlockEncoding* enc) const override
    {
        MX_CHECK_ARG(in.size() == out.size(),
                     "quantize_block: size mismatch");
        if (!vectorizable(rounder) ||
            static_cast<std::size_t>(plan.k1) > kStackBlock) {
            scalar_kernel().quantize_block(plan, in, out, rounder, enc);
            return;
        }
        if (!enc) {
            avx2_quantize_block(plan, in.data(), in.size(), out.data(),
                                rounder, nullptr, nullptr);
            return;
        }
        enc->sub_shift.assign(plan.num_sub_blocks(in.size()), 0);
        enc->mantissa.assign(in.size(), 0);
        enc->shared_exp = avx2_quantize_block(
            plan, in.data(), in.size(), out.data(), rounder,
            enc->sub_shift.data(), enc->mantissa.data());
    }

    void
    quantize_pack(const QuantPlan& plan, std::span<const float> in,
                  const Rounder& rounder, BitWriter& writer) const override
    {
        const std::size_t k1 = static_cast<std::size_t>(plan.k1);
        if (!vectorizable(rounder) || k1 > kStackBlock) {
            scalar_kernel().quantize_pack(plan, in, rounder, writer);
            return;
        }
        alignas(32) float out[kStackBlock];
        std::uint8_t taus[kStackBlock];
        alignas(32) std::int32_t mant[kStackBlock];
        for (std::size_t off = 0; off < in.size(); off += k1) {
            const std::size_t n = std::min(k1, in.size() - off);
            const int shared = avx2_quantize_block(
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
        if (!vectorizable(rounder) ||
            static_cast<std::size_t>(plan.k1) > kStackBlock) {
            scalar_kernel().quantize_fold_rows(plan, in, rows, cols,
                                               rounder, mant, exp,
                                               group_rows);
            return;
        }
        MX_CHECK_ARG(plan.m + plan.beta <= 15,
                     "quantize_fold_rows: folded mantissa wider than int16");
        if (rounder.mode() == RoundingMode::TowardZero)
            avx2_fold_rows<_MM_FROUND_TO_ZERO>(plan, in, rows, cols, rounder,
                                               mant, exp, group_rows);
        else
            avx2_fold_rows<_MM_FROUND_TO_NEAREST_INT>(
                plan, in, rows, cols, rounder, mant, exp, group_rows);
    }

    void
    dequantize_block(const QuantPlan& plan, const Pow2BlockEncoding& enc,
                     std::span<float> out) const override
    {
        const std::size_t n = out.size();
        MX_CHECK_ARG(n == enc.mantissa.size(),
                     "dequantize_block: size mismatch");
        MX_CHECK_ARG(enc.sub_shift.size() >= plan.num_sub_blocks(n),
                     "dequantize_block: missing sub-shifts");
        if (n > kStackBlock) {
            scalar_kernel().dequantize_block(plan, enc, out);
            return;
        }
        alignas(32) double step[kStackBlock];
        const std::size_t k2 = static_cast<std::size_t>(plan.k2);
        const std::size_t n_sub = plan.num_sub_blocks(n);
        for (std::size_t sub = 0; sub < n_sub; ++sub) {
            const std::size_t lo = sub * k2;
            const std::size_t hi = std::min(n, lo + k2);
            const double s =
                pow2d(enc.shared_exp - enc.sub_shift[sub] - (plan.m - 1));
            for (std::size_t j = lo; j < hi; ++j)
                step[j] = s;
        }
        const std::int32_t* mant = enc.mantissa.data();
        std::size_t i = 0;
        for (; i + 8 <= n; i += 8) {
            const __m256i m = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(mant + i));
            const __m256d lo =
                _mm256_cvtepi32_pd(_mm256_castsi256_si128(m));
            const __m256d hi =
                _mm256_cvtepi32_pd(_mm256_extracti128_si256(m, 1));
            const __m256d v_lo =
                _mm256_mul_pd(lo, _mm256_loadu_pd(step + i));
            const __m256d v_hi =
                _mm256_mul_pd(hi, _mm256_loadu_pd(step + i + 4));
            _mm256_storeu_ps(out.data() + i,
                             _mm256_set_m128(_mm256_cvtpd_ps(v_hi),
                                             _mm256_cvtpd_ps(v_lo)));
        }
        for (; i < n; ++i)
            out[i] =
                static_cast<float>(static_cast<double>(mant[i]) * step[i]);
    }
};

} // namespace

const QuantKernel*
avx2_kernel()
{
    static const Avx2Kernel kernel;
    return &kernel;
}

} // namespace kernels
} // namespace core
} // namespace mx

#else // !MX_HAVE_AVX2

namespace mx {
namespace core {
namespace kernels {

const QuantKernel*
avx2_kernel()
{
    return nullptr;
}

} // namespace kernels
} // namespace core
} // namespace mx

#endif // MX_HAVE_AVX2
