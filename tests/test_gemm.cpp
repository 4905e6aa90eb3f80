/**
 * @file
 * Packed-domain GEMM property tests (the Figure 6 execution pipeline):
 *
 *  - the FP32 matmul oracle the packed GEMM's QSNR is measured against
 *    (tensor::matmul_nt / nn::qmatmul_nt pinned to a naive
 *    double-accumulation reference across random shapes, ragged k1
 *    tails included, on both kernel dispatch legs);
 *  - scalar, AVX2 and AVX-512/VNNI packed kernels bit-identical (float
 *    bit patterns) for every MX / MSFP16 format pair across shapes,
 *    ragged widths, magnitude spreads and exponent extremes (the
 *    AVX-512 suite auto-skips where the host lacks the ISA), and every
 *    entry point bit-identical across MX_GEMM_THREADS lane counts on
 *    tile-crossing shapes;
 *  - packed execution agrees with the dequantized reference matmul to
 *    FP32-accumulation tolerance, and QSNR vs the FP32 oracle clears
 *    the pinned per-format floor;
 *  - the frozen nn::Linear / nn::MultiHeadAttention serving path
 *    actually routes through mx_gemm and keeps working after the FP32
 *    grid tensor is dropped — no dequantized weight copy anywhere.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/kernels/dispatch.h"
#include "core/thread_pool.h"
#include "gemm/gemm_plan.h"
#include "gemm/packed_gemm.h"
#include "gemm/packed_operand.h"
#include "nn/attention.h"
#include "nn/frozen.h"
#include "nn/linear.h"
#include "nn/quant.h"
#include "stats/rng.h"
#include "tensor/tensor.h"

using namespace mx;
using core::kernels::QuantPlan;
using core::kernels::make_quant_plan;
using tensor::Tensor;

namespace {

/** Run @p body once per kernel dispatch leg, restoring the default. */
template <typename Fn>
void
for_each_dispatch(Fn&& body)
{
    for (int leg = 0; leg < 2; ++leg) {
        core::kernels::set_force_scalar(leg == 1);
        body(leg == 1 ? "scalar" : "default");
    }
    core::kernels::set_force_scalar(false);
}

/** Run @p body once per SIMD level this host/build can execute,
 *  pinned via the dispatch test hook; restores the env resolution. */
template <typename Fn>
void
for_each_simd_level(Fn&& body)
{
    namespace ck = core::kernels;
    ck::set_simd_level(ck::SimdLevel::Scalar);
    body("scalar");
    if (ck::avx2_supported()) {
        ck::set_simd_level(ck::SimdLevel::Avx2);
        body("avx2");
    }
    if (ck::avx512_supported()) {
        ck::set_simd_level(ck::SimdLevel::Avx512);
        body("avx512");
    }
    ck::reset_simd_level();
}

std::vector<core::BdrFormat>
mx_formats()
{
    return {core::mx9(), core::mx6(), core::mx4()};
}

/** Random [rows x cols] with per-row magnitude spread: some rows pick
 *  up a large scale so block exponents differ across the row walk. */
Tensor
spread_randn(std::int64_t rows, std::int64_t cols, stats::Rng& rng)
{
    Tensor t = Tensor::randn({rows, cols}, rng, 1.0f);
    for (std::int64_t r = 0; r < rows; ++r) {
        const double s = std::pow(10.0, rng.uniform(-3.0, 3.0));
        for (std::int64_t c = 0; c < cols; ++c)
            t.data()[r * cols + c] *= static_cast<float>(s);
    }
    // An all-zero row exercises the e_min / tau=beta encoding.
    if (rows > 2)
        for (std::int64_t c = 0; c < cols; ++c)
            t.data()[2 * cols + c] = 0.0f;
    return t;
}

/** Naive triple-loop double-accumulation reference for C = A * B^T. */
Tensor
matmul_nt_reference(const Tensor& a, const Tensor& b)
{
    const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
    Tensor c({m, n});
    for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (std::int64_t kk = 0; kk < k; ++kk)
                acc += static_cast<double>(a.data()[i * k + kk]) *
                       b.data()[j * k + kk];
            c.data()[i * n + j] = static_cast<float>(acc);
        }
    return c;
}

double
max_abs(const Tensor& t)
{
    double m = 0.0;
    for (std::int64_t i = 0; i < t.numel(); ++i)
        m = std::max(m, std::fabs(static_cast<double>(t.data()[i])));
    return m;
}

/** Float bit-pattern equality: stricter than max_abs_diff == 0, which
 *  accepts +0.0 against -0.0. */
::testing::AssertionResult
same_bits(const Tensor& a, const Tensor& b)
{
    if (a.numel() != b.numel())
        return ::testing::AssertionFailure()
               << a.numel() << " vs " << b.numel() << " elements";
    for (std::int64_t i = 0; i < a.numel(); ++i)
        if (std::bit_cast<std::uint32_t>(a.data()[i]) !=
            std::bit_cast<std::uint32_t>(b.data()[i]))
            return ::testing::AssertionFailure()
                   << "element " << i << ": " << a.data()[i] << " vs "
                   << b.data()[i];
    return ::testing::AssertionSuccess();
}

/** The MX formats plus MSFP16, a plain BFP side (d2 = 0): every SIMD
 *  fast path takes both. */
std::vector<core::BdrFormat>
pair_formats()
{
    return {core::mx9(), core::mx6(), core::mx4(), core::msfp16()};
}

} // namespace

// ---------------------------------------------------------------------------
// The FP32 matmul oracle (satellite): pin tensor::matmul_nt and
// nn::qmatmul_nt to the naive double-accumulation reference.
// ---------------------------------------------------------------------------

TEST(MatmulOracle, MatmulNtMatchesNaiveDoubleReference)
{
    stats::Rng rng(101);
    const std::int64_t shapes[][3] = {
        {1, 1, 1}, {3, 19, 5}, {8, 16, 8}, {7, 35, 11}, {16, 64, 16}};
    for (const auto& s : shapes) {
        Tensor a = spread_randn(s[0], s[1], rng);
        Tensor b = spread_randn(s[2], s[1], rng);
        Tensor got = tensor::matmul_nt(a, b);
        Tensor want = matmul_nt_reference(a, b);
        EXPECT_EQ(tensor::max_abs_diff(got, want), 0.0)
            << "[" << s[0] << "," << s[1] << "," << s[2] << "]";
    }
}

TEST(MatmulOracle, QmatmulNtMatchesQuantizeThenOracleBothLegs)
{
    stats::Rng rng(102);
    for_each_dispatch([&](const char* leg) {
        for (const auto& fmt : mx_formats()) {
            // 19 and 35 end every row in a ragged k1 tail block.
            for (std::int64_t k : {16, 19, 35, 64}) {
                Tensor a = spread_randn(4, k, rng);
                Tensor b = spread_randn(6, k, rng);
                Tensor got = nn::qmatmul_nt(a, b, fmt);
                Tensor want = matmul_nt_reference(
                    nn::quantize_rows(a, fmt), nn::quantize_rows(b, fmt));
                EXPECT_EQ(tensor::max_abs_diff(got, want), 0.0)
                    << fmt.name << " k=" << k << " leg=" << leg;
            }
        }
    });
}

// ---------------------------------------------------------------------------
// GemmPlan pairing rules.
// ---------------------------------------------------------------------------

TEST(GemmPlan, MxPairsAreCompatibleAndPlanned)
{
    for (const auto& fa : mx_formats()) {
        for (const auto& fb : mx_formats()) {
            const QuantPlan a = make_quant_plan(fa), b = make_quant_plan(fb);
            ASSERT_TRUE(gemm::gemm_compatible(a, b))
                << fa.name << " x " << fb.name;
            const gemm::GemmPlan p = gemm::make_gemm_plan(a, b);
            EXPECT_EQ(p.budget, 2);
            EXPECT_EQ(p.exp_bias, (a.m - 1) + (b.m - 1) + 2);
        }
    }
}

TEST(GemmPlan, BfpSideUsesBlockConstantShift)
{
    const QuantPlan mx = make_quant_plan(core::mx9());
    const QuantPlan bfp = make_quant_plan(core::msfp16());
    ASSERT_TRUE(gemm::gemm_compatible(mx, bfp));
    const gemm::GemmPlan p = gemm::make_gemm_plan(mx, bfp);
    EXPECT_EQ(p.budget, 1);  // only the MX side shifts
}

TEST(GemmPlan, MismatchedK1AndWideMantissaRejected)
{
    const QuantPlan a = make_quant_plan(core::mx9());
    const QuantPlan b32 = make_quant_plan(core::mx_custom(7, 8, 32, 1, 2));
    EXPECT_FALSE(gemm::gemm_compatible(a, b32));
    EXPECT_THROW(gemm::make_gemm_plan(a, b32), ArgumentError);

    const QuantPlan wide = make_quant_plan(core::bfp_custom(23, 8, 16));
    EXPECT_FALSE(gemm::operand_eligible(wide));
    EXPECT_FALSE(gemm::gemm_compatible(a, wide));

    // The folded mantissa M << (beta - tau) needs m + beta <= 15 bits:
    // d2 = 2 gives beta = 3, so m = 12 is the widest eligible mantissa.
    const QuantPlan edge = make_quant_plan(core::mx_custom(12, 8, 16, 2, 4));
    EXPECT_TRUE(gemm::operand_eligible(edge));
    EXPECT_TRUE(gemm::gemm_compatible(a, edge));
    EXPECT_NO_THROW(gemm::make_gemm_plan(a, edge));
    const QuantPlan over = make_quant_plan(core::mx_custom(13, 8, 16, 2, 4));
    EXPECT_FALSE(gemm::operand_eligible(over));
    EXPECT_FALSE(gemm::gemm_compatible(a, over));
    EXPECT_THROW(gemm::make_gemm_plan(a, over), ArgumentError);
}

// ---------------------------------------------------------------------------
// PackedOperand: the decoded view equals the quantize-time encodings
// and exposes per-row stream offsets.
// ---------------------------------------------------------------------------

namespace {

/** [rows x cols] encoder probe: seven edge-valued rows, then random
 *  rows with per-row magnitude spread (19 rows cross an exponent
 *  group).  Edge rows: all +0; alternating +0/-0; +-FLT_MAX among unit
 *  values; denormals among normal values (their sub-blocks clamp to
 *  tau = beta); exact rounding ties for @p plan (every value is 1 plus
 *  an odd number of half steps, so the block exponent is 0 and every
 *  tau is 0); a block exponent of -130, below the vector encoder's
 *  fallback guard, whose denormal sub-blocks need their true exponent
 *  (tau = beta and an odd mantissa); amax 1.5 * 2^(beta - 127), the
 *  guard's lowest vectorized exponent (a denormal amax when beta = 0),
 *  among smaller denormals. */
std::vector<float>
encoder_probe(const QuantPlan& plan, std::size_t cols, stats::Rng& rng)
{
    constexpr std::size_t kRows = 19;
    std::vector<float> x(kRows * cols);
    const std::size_t half = std::size_t{1} << std::max(plan.m - 1, 0);
    const float step = std::ldexp(1.0f, 1 - plan.m);
    for (std::size_t c = 0; c < cols; ++c) {
        const float sign = c % 3 == 1 ? -1.0f : 1.0f;
        x[0 * cols + c] = 0.0f;
        x[1 * cols + c] = c % 2 == 0 ? 0.0f : -0.0f;
        x[2 * cols + c] =
            c % 5 == 0 ? sign * FLT_MAX : sign * (0.5f + 0.01f * c);
        x[3 * cols + c] = c % 4 < 2 ? sign * 1e-41f * (1 + c)
                                    : sign * 0.75f * (1 + c % 7);
        x[4 * cols + c] =
            sign * (1.0f + (static_cast<float>(c % half) + 0.5f) * step);
        x[5 * cols + c] =
            c % 4 == 0 ? sign * 1.25f * std::ldexp(1.0f, -130)
                       : sign * (std::ldexp(1.0f, -130 - plan.beta) +
                                 std::ldexp(1.0f, -129 - plan.beta - plan.m));
        x[6 * cols + c] = c % 6 == 0
            ? sign * 1.5f * std::ldexp(1.0f, plan.beta - 127)
            : sign * 3e-44f * static_cast<float>(1 + c % 4);
    }
    const Tensor r = spread_randn(kRows - 7, static_cast<std::int64_t>(cols),
                                  rng);
    std::copy(r.data(), r.data() + r.numel(), x.begin() + 7 * cols);
    return x;
}

} // namespace

TEST(PackedOperand, DecodeEqualsQuantizeAndRowOffsetsAreUniform)
{
    stats::Rng rng(103);
    for (const auto& fmt : mx_formats()) {
        for (std::int64_t cols : {48, 19}) {
            Tensor w = spread_randn(5, cols, rng);
            nn::FrozenTensor f = nn::FrozenTensor::build(w, fmt);
            ASSERT_TRUE(f.gemm_operand().has_value()) << fmt.name;
            const gemm::PackedOperand& dec = *f.gemm_operand();

            const QuantPlan plan = make_quant_plan(fmt);
            core::Rounder rounder;
            const gemm::PackedOperand enc = gemm::PackedOperand::quantize(
                plan, w.data(), 5, static_cast<std::size_t>(cols),
                rounder);

            ASSERT_EQ(dec.rows(), enc.rows());
            ASSERT_EQ(dec.cols(), enc.cols());
            for (std::size_t r = 0; r < dec.rows(); ++r) {
                for (std::size_t c = 0; c < dec.cols(); ++c)
                    EXPECT_EQ(dec.row_mantissa(r)[c], enc.row_mantissa(r)[c])
                        << fmt.name << " [" << r << "," << c << "]";
                for (std::size_t b = 0; b < dec.blocks_per_row(); ++b)
                    EXPECT_EQ(dec.row_exp(r)[b], enc.row_exp(r)[b]);
                EXPECT_EQ(dec.row_bit_offset(r),
                          r * gemm::row_bits(plan,
                                             static_cast<std::size_t>(
                                                 cols)));
            }
            // The view is an integer artifact: smaller than the FP32
            // tensor it replaces.
            EXPECT_LT(dec.memory_bytes(),
                      static_cast<std::size_t>(w.numel()) * sizeof(float));
        }
    }

    // The activation-side encoder (PackedOperand::quantize) against the
    // decode of the scalar reference's packed stream, bit for bit, on
    // every SIMD level, every width from 1 to 2 * k1 + 1, and edge
    // values.  The formats cover every sub-block path of the AVX2 leg:
    // k2 = 2 (MX9/6/4), d2 = 0 (MSFP16, BFP with d1 = 11 and k1 = 64),
    // k2 = 1, 4, 8 in registers, and k2 = 3 or 16 through the per-
    // element shift table (k1 = 24 also puts a short chunk inside every
    // full block).
    const std::vector<core::BdrFormat> formats = {
        core::mx9(),
        core::mx6(),
        core::mx4(),
        core::msfp16(),
        core::bfp_custom(7, 11, 64),
        core::mx_custom(6, 8, 8, 1, 1),
        core::mx_custom(4, 8, 16, 2, 4),
        core::mx_custom(2, 8, 32, 3, 8),
        core::mx_custom(5, 8, 24, 2, 3),
        core::mx_custom(3, 8, 64, 2, 16),
    };
    const core::RoundingMode modes[] = {core::RoundingMode::NearestEven,
                                        core::RoundingMode::TowardZero,
                                        core::RoundingMode::NearestAway};
    for (const auto& fmt : formats) {
        const QuantPlan plan = make_quant_plan(fmt);
        const std::size_t k1 = static_cast<std::size_t>(plan.k1);
        for (std::size_t cols = 1; cols <= 2 * k1 + 1; ++cols) {
            const std::vector<float> x = encoder_probe(plan, cols, rng);
            const std::size_t rows = x.size() / cols;
            for (const core::RoundingMode mode : modes) {
                const core::Rounder rounder(mode);
                core::BitWriter w;
                core::kernels::scalar_kernel().quantize_pack_rows(
                    plan, x.data(), rows, cols, rounder, w);
                const gemm::PackedOperand dec =
                    gemm::PackedOperand::decode(plan, w.bytes(), rows, cols);
                for_each_simd_level([&](const char* level) {
                    const gemm::PackedOperand enc =
                        gemm::PackedOperand::quantize(plan, x.data(), rows,
                                                      cols, rounder);
                    ASSERT_EQ(dec.rows(), enc.rows());
                    ASSERT_EQ(dec.cols(), enc.cols());
                    for (std::size_t r = 0; r < rows; ++r) {
                        for (std::size_t c = 0; c < cols; ++c)
                            ASSERT_EQ(dec.row_mantissa(r)[c],
                                      enc.row_mantissa(r)[c])
                                << fmt.name << " " << level << " cols "
                                << cols << " mode "
                                << static_cast<int>(mode) << " [" << r
                                << "," << c << "] x=" << x[r * cols + c];
                        for (std::size_t b = 0; b < dec.blocks_per_row();
                             ++b)
                            ASSERT_EQ(dec.row_exp(r)[b], enc.row_exp(r)[b])
                                << fmt.name << " " << level << " cols "
                                << cols << " row " << r << " block " << b;
                    }
                    // Exponent lanes past the last row stay zero.
                    const std::size_t groups =
                        (rows + gemm::kExpGroupRows - 1) /
                        gemm::kExpGroupRows;
                    const std::int16_t* last = enc.group_exp(groups - 1);
                    for (std::size_t b = 0; b < enc.blocks_per_row(); ++b)
                        for (std::size_t lane = rows % gemm::kExpGroupRows;
                             lane != 0 && lane < gemm::kExpGroupRows;
                             ++lane)
                            ASSERT_EQ(last[b * gemm::kExpGroupRows + lane],
                                      0);
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel semantics: dequantized-reference agreement, QSNR floors, and
// scalar/AVX2 bit-identity.
// ---------------------------------------------------------------------------

namespace {

struct GemmCase
{
    std::int64_t m, k, n;
};

const GemmCase kCases[] = {
    {1, 16, 1},    {4, 19, 6},     {8, 64, 16},  {5, 35, 9},
    {16, 128, 24}, {3, 256, 7},
    // Several 16-column groups with a ragged remainder.
    {1, 38, 128},  {100, 100, 32}, {2, 33, 530},
    // Serving shapes (m x k x n): d_model <-> FFN projections.
    {1, 512, 128}, {1, 128, 512},
    // An odd block count (5) ending in a ragged tail.
    {3, 71, 20}};

/** Per-format QSNR floor of a packed GEMM against the FP32 oracle on
 *  Gaussian operands — dominated by the quantization error of the two
 *  operands (measured ~43/~25/~13 dB), pinned with generous margin so
 *  only a real execution bug can trip it. */
double
qsnr_floor(const core::BdrFormat& fmt)
{
    if (fmt.name == "MX9")
        return 35.0;
    if (fmt.name == "MX6")
        return 18.0;
    return 8.0; // MX4
}

} // namespace

TEST(PackedGemm, MatchesDequantizedReference)
{
    stats::Rng rng(104);
    for_each_dispatch([&](const char* leg) {
        for (const auto& fmt : mx_formats()) {
            for (const GemmCase& cs : kCases) {
                Tensor x = spread_randn(cs.m, cs.k, rng);
                Tensor w = spread_randn(cs.n, cs.k, rng);
                const QuantPlan plan = make_quant_plan(fmt);
                nn::FrozenTensor f = nn::FrozenTensor::build(w, fmt);
                Tensor got =
                    gemm::matmul_nt_packed(x, plan, *f.gemm_operand());

                // Dequantized reference: the same operands through the
                // fake-quant FP32 path.  The packed path accumulates
                // across blocks in FP32 where the reference uses FP64,
                // so agreement is to float-accumulation tolerance.
                Tensor ref = tensor::matmul_nt(nn::quantize_rows(x, fmt),
                                               f.values());
                EXPECT_LE(tensor::max_abs_diff(got, ref),
                          1e-5 * std::max(max_abs(ref), 1e-20))
                    << fmt.name << " [" << cs.m << "," << cs.k << ","
                    << cs.n << "] leg=" << leg;
            }
        }
    });
}

TEST(PackedGemm, QsnrAgainstFp32OracleClearsPinnedFloor)
{
    stats::Rng rng(113);
    for_each_dispatch([&](const char* leg) {
        for (const auto& fmt : mx_formats()) {
            const QuantPlan plan = make_quant_plan(fmt);
            double sig = 0.0, noise = 0.0;
            for (std::int64_t k : {16, 64, 256}) {
                Tensor x = Tensor::randn({8, k}, rng, 1.0f);
                Tensor w = Tensor::randn({16, k}, rng, 0.3f);
                nn::FrozenTensor f = nn::FrozenTensor::build(w, fmt);
                Tensor got =
                    gemm::matmul_nt_packed(x, plan, *f.gemm_operand());
                Tensor oracle = matmul_nt_reference(x, w);
                for (std::int64_t i = 0; i < oracle.numel(); ++i) {
                    const double r = oracle.data()[i];
                    const double d =
                        r - static_cast<double>(got.data()[i]);
                    sig += r * r;
                    noise += d * d;
                }
            }
            const double db = 10.0 * std::log10(sig / noise);
            EXPECT_GE(db, qsnr_floor(fmt))
                << fmt.name << " leg=" << leg;
        }
    });
}

TEST(PackedGemm, ScalarAndAvx2BitIdentical)
{
    if (gemm::avx2_gemm_kernel() == nullptr ||
        !core::kernels::avx2_supported())
        GTEST_SKIP() << "no AVX2 on this host/build";
    stats::Rng rng(105);
    for (const auto& fa : pair_formats()) {
        for (const auto& fb : pair_formats()) {
            for (const GemmCase& cs : kCases) {
                Tensor x = spread_randn(cs.m, cs.k, rng);
                Tensor w = spread_randn(cs.n, cs.k, rng);
                const QuantPlan pa = make_quant_plan(fa);
                const QuantPlan pb = make_quant_plan(fb);
                core::Rounder rounder;
                const auto a = gemm::PackedOperand::quantize(
                    pa, x.data(), static_cast<std::size_t>(cs.m),
                    static_cast<std::size_t>(cs.k), rounder);
                const auto b = gemm::PackedOperand::quantize(
                    pb, w.data(), static_cast<std::size_t>(cs.n),
                    static_cast<std::size_t>(cs.k), rounder);
                const gemm::GemmPlan plan = gemm::make_gemm_plan(pa, pb);
                Tensor cs_out({cs.m, cs.n}), cv_out({cs.m, cs.n});
                gemm::scalar_gemm_kernel().gemm(plan, a, b, cs_out.data());
                gemm::avx2_gemm_kernel()->gemm(plan, a, b, cv_out.data());
                EXPECT_TRUE(same_bits(cs_out, cv_out))
                    << fa.name << " x " << fb.name << " [" << cs.m << ","
                    << cs.k << "," << cs.n << "]";
            }
        }
    }
}

TEST(PackedGemm, DispatchLegsProduceIdenticalResults)
{
    stats::Rng rng(106);
    for (const auto& fmt : mx_formats()) {
        Tensor x = spread_randn(6, 67, rng); // ragged tail
        Tensor w = spread_randn(9, 67, rng);
        const QuantPlan plan = make_quant_plan(fmt);
        nn::FrozenTensor f = nn::FrozenTensor::build(w, fmt);
        core::kernels::set_force_scalar(false);
        Tensor deflt = gemm::matmul_nt_packed(x, plan, *f.gemm_operand());
        core::kernels::set_force_scalar(true);
        Tensor scalar = gemm::matmul_nt_packed(x, plan, *f.gemm_operand());
        core::kernels::set_force_scalar(false);
        EXPECT_TRUE(same_bits(deflt, scalar)) << fmt.name;
    }
}

TEST(PackedGemm, MixedWeightActivationFormats)
{
    // Table IV (w, a) splits: weights MX4, activations MX9.
    stats::Rng rng(107);
    Tensor x = spread_randn(5, 48, rng);
    Tensor w = spread_randn(7, 48, rng);
    const QuantPlan pa = make_quant_plan(core::mx9());
    nn::FrozenTensor f = nn::FrozenTensor::build(w, core::mx4());
    Tensor got = gemm::matmul_nt_packed(x, pa, *f.gemm_operand());
    Tensor ref = tensor::matmul_nt(nn::quantize_rows(x, core::mx9()),
                                   f.values());
    EXPECT_LE(tensor::max_abs_diff(got, ref),
              1e-5 * std::max(max_abs(ref), 1e-20));
}

TEST(PackedGemm, DeterministicAcrossRepeatedCalls)
{
    stats::Rng rng(108);
    Tensor x = spread_randn(4, 35, rng);
    Tensor w = spread_randn(6, 35, rng);
    const QuantPlan plan = make_quant_plan(core::mx9());
    nn::FrozenTensor f = nn::FrozenTensor::build(w, core::mx9());
    Tensor first = gemm::matmul_nt_packed(x, plan, *f.gemm_operand());
    for (int i = 0; i < 3; ++i) {
        Tensor again = gemm::matmul_nt_packed(x, plan, *f.gemm_operand());
        EXPECT_EQ(tensor::max_abs_diff(first, again), 0.0);
    }
}

// ---------------------------------------------------------------------------
// The serving path: frozen layers route through mx_gemm and need no
// dequantized FP32 weight copy.
// ---------------------------------------------------------------------------

namespace {

/** Pin a routing mode for one test body, restoring Auto. */
class ScopedMode
{
  public:
    explicit ScopedMode(gemm::Mode m) { gemm::set_mode(m); }
    ~ScopedMode() { gemm::set_mode(gemm::Mode::Auto); }
};

} // namespace

TEST(FrozenGemmRouting, AutoRoutesByProfitabilityAndNecessity)
{
    // Auto policy: packed exactly when the AVX2 gemm kernel is active
    // (profitable) or the layer has no FP32 values left (required).
    ScopedMode mode(gemm::Mode::Auto);
    stats::Rng rng(114);
    nn::Linear layer(32, 8, nn::QuantSpec::forward_only(core::mx9()),
                     rng);
    Tensor x = Tensor::randn({4, 32}, rng);
    layer.freeze();

    core::kernels::set_force_scalar(true);
    EXPECT_FALSE(gemm::packed_profitable());
    std::uint64_t before = gemm::call_count();
    layer.forward(x, false);
    EXPECT_EQ(gemm::call_count(), before)
        << "Auto must serve on the values path when only the scalar "
           "gemm kernel is available";
    layer.drop_frozen_values();
    before = gemm::call_count();
    layer.forward(x, false);
    EXPECT_GT(gemm::call_count(), before)
        << "Auto must take the packed path once the values are gone";
    core::kernels::set_force_scalar(false);

    // With the pin released the dispatch re-resolves from the
    // environment; when that lands on AVX2 the packed path engages on
    // profitability alone (values are already gone here, so re-freeze
    // to get the FP32 fallback back first).
    layer.freeze();
    if (gemm::packed_profitable()) {
        before = gemm::call_count();
        layer.forward(x, false);
        EXPECT_GT(gemm::call_count(), before);
    }
}

TEST(FrozenGemmRouting, LinearTakesPackedPathAndSurvivesDropValues)
{
    ScopedMode mode(gemm::Mode::On);
    for_each_dispatch([&](const char* leg) {
        for (const auto& fmt : mx_formats()) {
            for (std::int64_t in : {32, 19}) {
                stats::Rng rng(109);
                nn::Linear layer(in, 8, nn::QuantSpec::forward_only(fmt),
                                 rng);
                Tensor x = Tensor::randn({4, in}, rng, 2.0f);
                Tensor fake = layer.forward(x, false);
                layer.freeze();

                const std::uint64_t before = gemm::call_count();
                Tensor frozen = layer.forward(x, false);
                EXPECT_GT(gemm::call_count(), before)
                    << "frozen forward did not route through mx_gemm ("
                    << fmt.name << " leg=" << leg << ")";
                EXPECT_LE(tensor::max_abs_diff(fake, frozen),
                          1e-5 * std::max(max_abs(fake), 1e-20))
                    << fmt.name << " in=" << in << " leg=" << leg;

                // Drop the FP32 grid tensor: the packed artifact is now
                // the only weight container, and serving still works,
                // bit-identically to the pre-drop packed forward.
                layer.drop_frozen_values();
                EXPECT_EQ(layer.frozen_weight().values().numel(), 0);
                ASSERT_TRUE(layer.frozen());
                Tensor after = layer.forward(x, false);
                EXPECT_EQ(tensor::max_abs_diff(frozen, after), 0.0);

                // Disabling the packed path with no values left must
                // fail loudly, not silently dequantize.
                gemm::set_mode(gemm::Mode::Off);
                EXPECT_THROW(layer.forward(x, false), ArgumentError);
                gemm::set_mode(gemm::Mode::On);
            }
        }
    });
}

TEST(FrozenGemmRouting, LegacyPathStillBitIdenticalWhenDisabled)
{
    ScopedMode mode(gemm::Mode::Off);
    for (const auto& fmt : mx_formats()) {
        stats::Rng rng(110);
        nn::Linear layer(48, 8, nn::QuantSpec::forward_only(fmt), rng);
        Tensor x = Tensor::randn({4, 48}, rng, 2.0f);
        Tensor fake = layer.forward(x, false);
        layer.freeze();
        const std::uint64_t before = gemm::call_count();
        Tensor frozen = layer.forward(x, false);
        EXPECT_EQ(gemm::call_count(), before) << "MX_GEMM=0 not honoured";
        EXPECT_EQ(tensor::max_abs_diff(fake, frozen), 0.0) << fmt.name;
    }
}

TEST(FrozenGemmRouting, AttentionProjectionsRideThePackedPath)
{
    ScopedMode mode(gemm::Mode::On);
    for_each_dispatch([&](const char* leg) {
        stats::Rng rng(111);
        nn::MultiHeadAttention attn(32, 2, 8, /*causal=*/true,
                                    nn::QuantSpec::forward_only(
                                        core::mx9()),
                                    rng);
        Tensor x = Tensor::randn({2 * 8, 32}, rng);
        Tensor fake = attn.forward(x, false);
        attn.freeze();
        const std::uint64_t before = gemm::call_count();
        Tensor frozen = attn.forward(x, false);
        // All four projections (Q, K, V, O) run packed.
        EXPECT_GE(gemm::call_count(), before + 4) << "leg=" << leg;
        EXPECT_LE(tensor::max_abs_diff(fake, frozen),
                  1e-5 * std::max(max_abs(fake), 1e-20))
            << "leg=" << leg;
    });
}

TEST(FrozenGemmRouting, NonPackableFormatsFallBackToValues)
{
    // FP8 weights have no pow2-block packed artifact: the frozen path
    // must serve on the grid values, not through mx_gemm.
    stats::Rng rng(112);
    nn::Linear layer(32, 8,
                     nn::QuantSpec::forward_only(core::fp8_e4m3()), rng);
    Tensor x = Tensor::randn({4, 32}, rng);
    Tensor fake = layer.forward(x, false);
    layer.freeze();
    EXPECT_FALSE(layer.frozen_weight().gemm_operand().has_value());
    const std::uint64_t before = gemm::call_count();
    Tensor frozen = layer.forward(x, false);
    EXPECT_EQ(gemm::call_count(), before);
    EXPECT_EQ(tensor::max_abs_diff(fake, frozen), 0.0);
    EXPECT_THROW(layer.drop_frozen_values(), ArgumentError);
}

TEST(FrozenGemmRouting, DropValuesRejectedWhenActivationsCannotPair)
{
    // A weights-only quantization spec (FP32 activations over packed
    // MX9 weights) produces a gemm view, but the packed path can never
    // engage without a pow2-block activation format — dropping the
    // grid tensor would brick the layer, so it must be rejected.
    stats::Rng rng(115);
    nn::QuantSpec spec;
    spec.weight_forward = core::mx9();
    nn::Linear layer(32, 8, spec, rng);
    Tensor x = Tensor::randn({4, 32}, rng);
    layer.freeze();
    ASSERT_TRUE(layer.frozen_weight().gemm_operand().has_value());
    EXPECT_THROW(layer.drop_frozen_values(), ArgumentError);
    // And the layer still serves on the values path afterwards.
    layer.forward(x, false);
}

// ---------------------------------------------------------------------------
// Activation-activation GEMM (the Q K^T / P V legs) and the byte-aligned
// row streams behind the native MX K/V cache.
// ---------------------------------------------------------------------------

TEST(PackedActAct, SingleBlockNtLegBitMatchesFakeQuant)
{
    // K <= k1 means one block pair per output element: the block's
    // grid products share one scale, so both paths hold the exact sum
    // in double and round to float exactly once.  The packed act-act
    // contraction must therefore equal the fake-quant reference
    // bit-for-bit — this is the exactness the native K/V cache's
    // warm==cold pins stand on (head_dim and decode windows are
    // single-block in every miniature).
    stats::Rng rng(120);
    for_each_dispatch([&](const char* leg) {
        for (const auto& fmt : mx_formats()) {
            for (std::int64_t k : {16, 11}) {
                Tensor x = spread_randn(3, k, rng);
                Tensor y = spread_randn(5, k, rng);
                const QuantPlan plan = make_quant_plan(fmt);
                Tensor got = gemm::matmul_nt_packed2(x, plan, y, plan);
                Tensor ref = nn::qmatmul_nt(x, y, fmt);
                EXPECT_EQ(tensor::max_abs_diff(got, ref), 0.0)
                    << fmt.name << " k=" << k << " leg=" << leg;
            }
        }
    });
}

TEST(PackedActAct, MultiBlockNtLegMatchesDequantizedReference)
{
    // Across blocks the packed path accumulates in FP32 where the
    // reference uses FP64, so the contract widens to float-accumulation
    // tolerance — but the two dispatch legs must still agree exactly.
    stats::Rng rng(121);
    for (const auto& fmt : mx_formats()) {
        for (std::int64_t k : {48, 35}) {
            Tensor x = spread_randn(5, k, rng);
            Tensor y = spread_randn(7, k, rng);
            const QuantPlan plan = make_quant_plan(fmt);
            core::kernels::set_force_scalar(false);
            Tensor deflt = gemm::matmul_nt_packed2(x, plan, y, plan);
            core::kernels::set_force_scalar(true);
            Tensor scalar = gemm::matmul_nt_packed2(x, plan, y, plan);
            core::kernels::set_force_scalar(false);
            EXPECT_EQ(tensor::max_abs_diff(deflt, scalar), 0.0)
                << fmt.name << " k=" << k;
            Tensor ref = tensor::matmul_nt(nn::quantize_rows(x, fmt),
                                           nn::quantize_rows(y, fmt));
            EXPECT_LE(tensor::max_abs_diff(deflt, ref),
                      1e-5 * std::max(max_abs(ref), 1e-20))
                << fmt.name << " k=" << k;
        }
    }
}

namespace {

/**
 * Pack @p vt ([rows x cols] floats) as the native V cache stores it: one
 * byte-aligned [pad + rows + pad, k1] slab per whole k1-column block,
 * the operand's rows at [pad, pad + rows) and foreign rows (the other
 * heads of a [d_model, k1] slab) around them.  Each slab is an exact-size
 * heap buffer, so a read past its last block is an overflow.
 */
std::vector<std::vector<std::uint8_t>>
pack_slabs(const QuantPlan& plan, const Tensor& vt, std::size_t pad,
           std::size_t nslabs)
{
    const std::size_t k1 = static_cast<std::size_t>(plan.k1);
    const std::size_t rows = static_cast<std::size_t>(vt.dim(0));
    const std::size_t cols = static_cast<std::size_t>(vt.dim(1));
    const std::size_t srows = pad + rows + pad;
    core::Rounder rounder;
    std::vector<std::vector<std::uint8_t>> slabs;
    for (std::size_t b = 0; b < nslabs; ++b) {
        std::vector<float> slab(srows * k1);
        for (std::size_t r = 0; r < srows; ++r)
            for (std::size_t c = 0; c < k1; ++c)
                slab[r * k1 + c] =
                    r < pad || r >= pad + rows
                        ? static_cast<float>(r + 1)
                        : vt.data()[(r - pad) * cols + b * k1 + c];
        std::vector<std::uint8_t> bytes;
        gemm::pack_rows_aligned(plan, slab.data(), srows, k1, rounder,
                                bytes);
        slabs.emplace_back(bytes.begin(), bytes.end());
    }
    return slabs;
}

} // namespace

TEST(PackedActAct, SlabGemmPlusTailTermBitMatchesOnePieceNt)
{
    // How P V runs over the native V cache: one NT GEMM of the
    // probability rows — columns past each row's committed blocks
    // zeroed — against one head's V^T decoded from the slab streams,
    // then each row's open tail block added by the one-block term.  A
    // zero block adds +0 to an FP32 sum that started at +0, so every
    // row must equal the one-piece contraction of [1, vis] against
    // [head_dim, vis], bit for bit.  One row per vis, so rows with
    // nb = 0, 1 and 3 committed blocks share the GEMM.
    stats::Rng rng(124);
    constexpr std::int64_t k1 = 16;
    const std::int64_t vis_set[] = {k1 - 1, k1, k1 + 1, 3 * k1 + 5};
    const std::int64_t rows = 4, committed = 3 * k1, keys = 3 * k1 + 5;
    for_each_dispatch([&](const char* leg) {
        for (const auto& fmt : pair_formats()) {
            const QuantPlan plan = make_quant_plan(fmt);
            const gemm::GemmPlan gp = gemm::make_gemm_plan(plan, plan);
            core::Rounder rounder;
            for (std::int64_t head_dim : {7, 20, 33}) {
                Tensor probs = spread_randn(rows, keys, rng);
                Tensor vt = spread_randn(head_dim, keys, rng);
                const auto slabs =
                    pack_slabs(plan, vt, 3, committed / k1);
                const auto vh = gemm::PackedOperand::decode_slab_rows(
                    plan, slabs, 3, static_cast<std::size_t>(head_dim));

                std::vector<float> masked(
                    static_cast<std::size_t>(rows * committed), 0.0f);
                for (std::int64_t i = 0; i < rows; ++i)
                    std::copy(probs.data() + i * keys,
                              probs.data() + i * keys +
                                  vis_set[i] / k1 * k1,
                              masked.data() + i * committed);
                Tensor got = gemm::matmul_nt_prequant(
                    gp,
                    gemm::PackedOperand::quantize(
                        plan, masked.data(), static_cast<std::size_t>(rows),
                        static_cast<std::size_t>(committed), rounder),
                    vh);

                for (std::int64_t i = 0; i < rows; ++i) {
                    const std::int64_t vis = vis_set[i];
                    const std::int64_t t0 = vis / k1 * k1, tlen = vis - t0;
                    // The row's visible V^T and its tail block.
                    Tensor v_vis({head_dim, vis});
                    for (std::int64_t d = 0; d < head_dim; ++d)
                        std::copy(vt.data() + d * keys,
                                  vt.data() + d * keys + vis,
                                  v_vis.data() + d * vis);
                    float* row = got.data() + i * head_dim;
                    if (tlen > 0) {
                        Tensor v_tail({head_dim, tlen});
                        for (std::int64_t d = 0; d < head_dim; ++d)
                            std::copy(v_vis.data() + d * vis + t0,
                                      v_vis.data() + d * vis + vis,
                                      v_tail.data() + d * tlen);
                        gemm::add_block_term(
                            gp,
                            gemm::PackedOperand::quantize(
                                plan, probs.data() + i * keys + t0, 1,
                                static_cast<std::size_t>(tlen), rounder),
                            gemm::PackedOperand::quantize(
                                plan, v_tail.data(),
                                static_cast<std::size_t>(head_dim),
                                static_cast<std::size_t>(tlen), rounder),
                            row);
                    }
                    Tensor want = gemm::matmul_nt_prequant(
                        gp,
                        gemm::PackedOperand::quantize(
                            plan, probs.data() + i * keys, 1,
                            static_cast<std::size_t>(vis), rounder),
                        gemm::PackedOperand::quantize(
                            plan, v_vis.data(),
                            static_cast<std::size_t>(head_dim),
                            static_cast<std::size_t>(vis), rounder));
                    Tensor got_row({1, head_dim});
                    std::copy(row, row + head_dim, got_row.data());
                    EXPECT_TRUE(same_bits(got_row, want))
                        << fmt.name << " head_dim=" << head_dim
                        << " vis=" << vis << " leg=" << leg;
                }
            }
        }
    });
}

TEST(PackedOperand, AlignedRowStreamAppendsAndDecodesExactly)
{
    // The native K/V cache's storage form: appending rows in two calls
    // must produce the same byte stream as one call (append is a pure
    // memcpy at byte-aligned offsets), and decode_rows must recover
    // the exact execution view PackedOperand::quantize builds.
    stats::Rng rng(123);
    for (const auto& fmt : mx_formats()) {
        for (std::int64_t cols : {16, 19, 48}) {
            const std::size_t rows = 5, ucols =
                static_cast<std::size_t>(cols);
            Tensor x = spread_randn(static_cast<std::int64_t>(rows),
                                    cols, rng);
            const QuantPlan plan = make_quant_plan(fmt);
            core::Rounder rounder;
            std::vector<std::uint8_t> one, two;
            gemm::pack_rows_aligned(plan, x.data(), rows, ucols, rounder,
                                    one);
            gemm::pack_rows_aligned(plan, x.data(), 3, ucols, rounder,
                                    two);
            gemm::pack_rows_aligned(plan, x.data() + 3 * cols, rows - 3,
                                    ucols, rounder, two);
            EXPECT_EQ(one, two) << fmt.name << " cols=" << cols;
            EXPECT_EQ(one.size(),
                      rows * gemm::row_stream_bytes(plan, ucols));

            const gemm::PackedOperand dec =
                gemm::PackedOperand::decode_rows(plan, one, rows, ucols);
            const gemm::PackedOperand enc = gemm::PackedOperand::quantize(
                plan, x.data(), rows, ucols, rounder);
            ASSERT_EQ(dec.rows(), enc.rows());
            ASSERT_EQ(dec.cols(), enc.cols());
            for (std::size_t r = 0; r < rows; ++r) {
                for (std::size_t c = 0; c < ucols; ++c)
                    EXPECT_EQ(dec.row_mantissa(r)[c],
                              enc.row_mantissa(r)[c])
                        << fmt.name << " [" << r << "," << c << "]";
                for (std::size_t b = 0; b < dec.blocks_per_row(); ++b)
                    EXPECT_EQ(dec.row_exp(r)[b], enc.row_exp(r)[b]);
            }
        }
    }
}

TEST(PackedOperand, SlabRowsDecodeEqualsConcatenatedSlabViews)
{
    // decode_slab_rows reads row r's block b from slab b: the result is
    // the column concatenation of each slab's decode_rows view over the
    // same rows.  Formats cover d2 = 0 (MSFP16, a BFP), a d1 = 11
    // exponent field, k1 = 64, and blocks that are not whole bytes
    // (d1 = 11: 147 bits; m = 2 with k2 = 4: 60 bits).  The row ranges
    // include the slab's last row, so with exact-size slab buffers a
    // sanitizer build catches any read past the last block.
    stats::Rng rng(125);
    const core::BdrFormat fmts[] = {
        core::mx9(),  core::mx6(),
        core::mx4(),  core::msfp16(),
        core::bfp_custom(5, 8, 16),     core::mx_custom(7, 11, 16, 1, 2),
        core::mx_custom(3, 8, 64, 2, 2), core::mx_custom(2, 8, 16, 1, 4)};
    for (const auto& fmt : fmts) {
        const QuantPlan plan = make_quant_plan(fmt);
        const std::size_t k1 = static_cast<std::size_t>(plan.k1);
        const std::size_t nslabs = 3, pad = 2, vrows = 19;
        const std::size_t srows = pad + vrows + pad;
        Tensor vt = spread_randn(static_cast<std::int64_t>(vrows),
                                 static_cast<std::int64_t>(nslabs * k1),
                                 rng);
        const auto slabs = pack_slabs(plan, vt, pad, nslabs);
        std::vector<gemm::PackedOperand> views;
        for (const auto& slab : slabs)
            views.push_back(
                gemm::PackedOperand::decode_rows(plan, slab, srows, k1));
        const std::size_t ranges[][2] = {
            {0, srows}, {pad, vrows}, {srows - 1, 1}, {5, srows - 5}};
        for (const auto& rg : ranges) {
            const auto op = gemm::PackedOperand::decode_slab_rows(
                plan, slabs, rg[0], rg[1]);
            ASSERT_EQ(op.rows(), rg[1]);
            ASSERT_EQ(op.cols(), nslabs * k1);
            for (std::size_t r = 0; r < rg[1]; ++r)
                for (std::size_t b = 0; b < nslabs; ++b) {
                    const gemm::PackedOperand& v = views[b];
                    EXPECT_EQ(op.row_exp(r)[b], v.row_exp(rg[0] + r)[0])
                        << fmt.name << " row " << rg[0] + r << " slab "
                        << b;
                    for (std::size_t c = 0; c < k1; ++c)
                        ASSERT_EQ(op.row_mantissa(r)[b * k1 + c],
                                  v.row_mantissa(rg[0] + r)[c])
                            << fmt.name << " row " << rg[0] + r
                            << " slab " << b << " col " << c;
                }
        }
        EXPECT_THROW(gemm::PackedOperand::decode_slab_rows(plan, slabs, 1,
                                                           srows),
                     ArgumentError)
            << fmt.name << ": rows past the slab end";
    }
}

// ---------------------------------------------------------------------------
// Blocked + threaded execution: the output-tile grid is fixed by shape
// alone, so every entry point is bit-identical for any MX_GEMM_THREADS
// and any SIMD leg — and the serial tile walk equals the old streaming
// order by the exact-roundtrip argument in packed_gemm.h.
// ---------------------------------------------------------------------------

namespace {

/** Pin a GEMM lane count for one scope; re-resolve from env after. */
class ScopedGemmThreads
{
  public:
    explicit ScopedGemmThreads(std::size_t t)
    {
        gemm::set_gemm_threads(t);
    }
    ~ScopedGemmThreads() { gemm::set_gemm_threads(0); }
};

/** Shapes that cross the tile grid: rows past kTileRowsA = 64, cols
 *  past kTileRowsB = 16, ragged contraction tails, exact boundaries. */
const GemmCase kTiledCases[] = {{70, 67, 70},
                                {64, 48, 32},
                                {9, 256, 33},
                                {65, 80, 4}};

} // namespace

TEST(PackedGemmThreading, NtEntryPointsBitIdenticalAcrossThreadCounts)
{
    stats::Rng rng(130);
    for_each_simd_level([&](const char* leg) {
        for (const auto& fmt : {core::mx9(), core::mx4()}) {
            for (const GemmCase& cs : kTiledCases) {
                Tensor x = spread_randn(cs.m, cs.k, rng);
                Tensor w = spread_randn(cs.n, cs.k, rng);
                const QuantPlan plan = make_quant_plan(fmt);
                nn::FrozenTensor f = nn::FrozenTensor::build(w, fmt);
                Tensor base_nt, base_aa;
                {
                    ScopedGemmThreads serial(1);
                    base_nt = gemm::matmul_nt_packed(x, plan,
                                                     *f.gemm_operand());
                    base_aa = gemm::matmul_nt_packed2(x, plan, w, plan);
                }
                for (std::size_t t : {std::size_t{2}, std::size_t{7}}) {
                    ScopedGemmThreads threads(t);
                    Tensor nt = gemm::matmul_nt_packed(x, plan,
                                                       *f.gemm_operand());
                    Tensor aa = gemm::matmul_nt_packed2(x, plan, w, plan);
                    EXPECT_EQ(tensor::max_abs_diff(nt, base_nt), 0.0)
                        << fmt.name << " [" << cs.m << "," << cs.k << ","
                        << cs.n << "] t=" << t << " leg=" << leg;
                    EXPECT_EQ(tensor::max_abs_diff(aa, base_aa), 0.0)
                        << fmt.name << " [" << cs.m << "," << cs.k << ","
                        << cs.n << "] t=" << t << " leg=" << leg;
                }
                // The kernel's own serial tile walk (the direct-call
                // convenience wrapper) agrees with the threaded driver.
                core::Rounder rounder;
                const auto a = gemm::PackedOperand::quantize(
                    plan, x.data(), static_cast<std::size_t>(cs.m),
                    static_cast<std::size_t>(cs.k), rounder);
                const auto b = gemm::PackedOperand::quantize(
                    plan, w.data(), static_cast<std::size_t>(cs.n),
                    static_cast<std::size_t>(cs.k), rounder);
                const gemm::GemmPlan gp = gemm::make_gemm_plan(plan, plan);
                Tensor direct({cs.m, cs.n});
                gemm::active_gemm_kernel().gemm(gp, a, b, direct.data());
                EXPECT_EQ(tensor::max_abs_diff(direct, base_aa), 0.0)
                    << fmt.name << " [" << cs.m << "," << cs.k << ","
                    << cs.n << "] leg=" << leg;
            }
        }
    });
}

TEST(PackedGemmThreading, EnvKnobResolvesAndClamps)
{
    ::setenv("MX_GEMM_THREADS", "7", 1);
    gemm::set_gemm_threads(0); // drop the cache, re-resolve
    EXPECT_EQ(gemm::gemm_threads(), 7u);
    // 0 is numeric nonsense for a lane count: the shared knob parser
    // clamps to the floor of 1 (serial) instead of silently falling
    // back to full pool fan-out — the opposite of what was asked.
    ::setenv("MX_GEMM_THREADS", "0", 1);
    gemm::set_gemm_threads(0);
    EXPECT_EQ(gemm::gemm_threads(), 1u);
    ::unsetenv("MX_GEMM_THREADS");
    gemm::set_gemm_threads(0);
    EXPECT_EQ(gemm::gemm_threads(),
              core::ThreadPool::default_thread_count());
    gemm::set_gemm_threads(5); // runtime override wins over env
    EXPECT_EQ(gemm::gemm_threads(), 5u);
    gemm::set_gemm_threads(0);
}

// ---------------------------------------------------------------------------
// The AVX-512/VNNI leg: bit-identical to the scalar reference wherever
// the host can run it; auto-skip (not fail) elsewhere.
// ---------------------------------------------------------------------------

TEST(PackedGemmAvx512, ScalarAndAvx512BitIdentical)
{
    if (gemm::avx512_gemm_kernel() == nullptr ||
        !core::kernels::avx512_supported())
        GTEST_SKIP() << "no AVX-512/VNNI on this host/build";
    stats::Rng rng(132);
    for (const auto& fa : pair_formats()) {
        for (const auto& fb : pair_formats()) {
            for (const GemmCase& cs : kCases) {
                Tensor x = spread_randn(cs.m, cs.k, rng);
                Tensor w = spread_randn(cs.n, cs.k, rng);
                const QuantPlan pa = make_quant_plan(fa);
                const QuantPlan pb = make_quant_plan(fb);
                core::Rounder rounder;
                const auto a = gemm::PackedOperand::quantize(
                    pa, x.data(), static_cast<std::size_t>(cs.m),
                    static_cast<std::size_t>(cs.k), rounder);
                const auto b = gemm::PackedOperand::quantize(
                    pb, w.data(), static_cast<std::size_t>(cs.n),
                    static_cast<std::size_t>(cs.k), rounder);
                const gemm::GemmPlan plan = gemm::make_gemm_plan(pa, pb);
                Tensor cs_out({cs.m, cs.n}), cv_out({cs.m, cs.n});
                gemm::scalar_gemm_kernel().gemm(plan, a, b,
                                                cs_out.data());
                gemm::avx512_gemm_kernel()->gemm(plan, a, b,
                                                 cv_out.data());
                EXPECT_TRUE(same_bits(cs_out, cv_out))
                    << fa.name << " x " << fb.name << " [" << cs.m << ","
                    << cs.k << "," << cs.n << "]";
            }
        }
    }

    // Exponent extremes: per-row scales near FLT_MAX, near FLT_MIN and
    // in the denormal range push Ea + Eb - exp_bias to both ends of what
    // a d1 = 8 format can produce (the vector 2^e epilogue), and a
    // d1 = 11 format's exponent field leaves the normal double range,
    // so its tiles take the scalar pow2_double / ldexp epilogue (its
    // all-zero row sits at e_min = -1023).  FLT_MAX-scaled pairs
    // overflow to inf or NaN, which must match bit for bit too.
    const float scales[] = {0.5f * FLT_MAX, 1e30f,       4.0f * FLT_MIN,
                            FLT_MIN,         1e-40f,      1e-44f,
                            1.0f,            0.25f * FLT_MAX};
    const auto extreme_rows = [&](std::int64_t rows, std::int64_t cols) {
        Tensor t({rows, cols});
        for (std::int64_t r = 0; r < rows; ++r)
            for (std::int64_t c = 0; c < cols; ++c)
                t.data()[r * cols + c] =
                    r == 2 ? 0.0f
                           : static_cast<float>(rng.uniform(-1.0, 1.0)) *
                                 scales[static_cast<std::size_t>(r) % 8];
        return t;
    };
    for (const auto& fmt : {core::mx9(), core::msfp16(),
                            core::mx_custom(7, 11, 16, 1, 2)}) {
        const QuantPlan plan = make_quant_plan(fmt);
        const gemm::GemmPlan gp = gemm::make_gemm_plan(plan, plan);
        for (const GemmCase& cs :
             {GemmCase{8, 71, 40}, GemmCase{3, 32, 17}}) {
            Tensor x = extreme_rows(cs.m, cs.k);
            Tensor w = extreme_rows(cs.n, cs.k);
            core::Rounder rounder;
            const auto a = gemm::PackedOperand::quantize(
                plan, x.data(), static_cast<std::size_t>(cs.m),
                static_cast<std::size_t>(cs.k), rounder);
            const auto b = gemm::PackedOperand::quantize(
                plan, w.data(), static_cast<std::size_t>(cs.n),
                static_cast<std::size_t>(cs.k), rounder);
            Tensor cs_out({cs.m, cs.n}), cv_out({cs.m, cs.n});
            gemm::scalar_gemm_kernel().gemm(gp, a, b, cs_out.data());
            gemm::avx512_gemm_kernel()->gemm(gp, a, b, cv_out.data());
            EXPECT_TRUE(same_bits(cs_out, cv_out))
                << "extremes " << fmt.name << " [" << cs.m << "," << cs.k
                << "," << cs.n << "]";
        }
    }

    // Float inputs never lift a d1 = 11 exponent past 127, but a stored
    // stream can: set every row's first exponent field (and the bits
    // after it) to ones, so block 0 decodes at E = 2^11 - 1 - e_max =
    // 1024 and Ea + Eb - exp_bias lies past 1023 — the scalar fallback
    // turns it into inf, which the vector 2^e bit pattern cannot.
    {
        const QuantPlan plan =
            make_quant_plan(core::mx_custom(7, 11, 16, 1, 2));
        const gemm::GemmPlan gp = gemm::make_gemm_plan(plan, plan);
        const std::int64_t m = 3, n = 20;
        const std::size_t k = 40;
        const std::size_t stride = gemm::row_stream_bytes(plan, k);
        const auto packed = [&](std::int64_t rows) {
            Tensor t = Tensor::randn(
                {rows, static_cast<std::int64_t>(k)}, rng, 1.0f);
            std::vector<std::uint8_t> bytes;
            core::Rounder rounder;
            const auto urows = static_cast<std::size_t>(rows);
            gemm::pack_rows_aligned(plan, t.data(), urows, k, rounder,
                                    bytes);
            for (std::size_t r = 0; r < urows; ++r)
                bytes[r * stride] = bytes[r * stride + 1] = 0xFF;
            return gemm::PackedOperand::decode_rows(plan, bytes, urows, k);
        };
        const auto a = packed(m);
        const auto b = packed(n);
        ASSERT_EQ(a.row_exp(0)[0], 1024);
        Tensor cs_out({m, n}), cv_out({m, n});
        gemm::scalar_gemm_kernel().gemm(gp, a, b, cs_out.data());
        gemm::avx512_gemm_kernel()->gemm(gp, a, b, cv_out.data());
        EXPECT_TRUE(std::isinf(cs_out.data()[0]) ||
                    std::isnan(cs_out.data()[0]));
        EXPECT_TRUE(same_bits(cs_out, cv_out)) << "E = 1024 stream";
    }
}

TEST(KernelDispatch, SimdLevelSelectsTheGemmKernel)
{
    namespace ck = core::kernels;
    ck::set_simd_level(ck::SimdLevel::Scalar);
    EXPECT_STREQ(gemm::active_gemm_kernel().name(), "scalar");
    EXPECT_FALSE(gemm::packed_profitable());
    if (ck::avx2_supported()) {
        ck::set_simd_level(ck::SimdLevel::Avx2);
        EXPECT_STREQ(gemm::active_gemm_kernel().name(), "avx2");
        EXPECT_TRUE(gemm::packed_profitable());
    }
    if (ck::avx512_supported()) {
        ck::set_simd_level(ck::SimdLevel::Avx512);
        EXPECT_STREQ(gemm::active_gemm_kernel().name(), "avx512");
        EXPECT_TRUE(gemm::packed_profitable());
    }
    // The hook caps at the host ceiling: asking for AVX-512 anywhere
    // resolves to a kernel this machine can actually execute.
    ck::set_simd_level(ck::SimdLevel::Avx512);
    const char* capped = gemm::active_gemm_kernel().name();
    EXPECT_TRUE(ck::avx512_supported() ? std::string(capped) == "avx512"
                : ck::avx2_supported() ? std::string(capped) == "avx2"
                                       : std::string(capped) == "scalar");
    ck::reset_simd_level();
    // The legacy pin still works on top of the level machinery.
    ck::set_force_scalar(true);
    EXPECT_STREQ(gemm::active_gemm_kernel().name(), "scalar");
    ck::set_force_scalar(false);
}
