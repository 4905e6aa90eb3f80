#pragma once

/**
 * @file
 * mx_gemm: packed-domain matrix multiplication (the Figure 6 pipeline),
 * cache-blocked and multithreaded.
 *
 * Executes C = A * B^T directly on quantized MX/BFP operands — one
 * integer dot product per k1-block pair over the folded mantissas
 * (packed_operand.h: M' = M << (beta - tau), the sub-block shifts
 * already applied), one shared-exponent alignment per pair, FP32
 * accumulation across blocks — without dequantizing either operand to
 * FP32.  The contract every kernel implementation must honour
 * bit-for-bit, per output element C[i,j], in ascending k1-block order:
 *
 *   acc_f32 = 0
 *   for each k1-block pair (Ea, Eb):
 *     blk_i64  = sum_k Ma'_k * Mb'_k                 // integer dot
 *     acc_f32 += float(double(blk) *
 *                      2^(Ea + Eb - exp_bias))       // exp alignment
 *   C[i,j] = acc_f32
 *
 * The block integer is the one the shift-per-sub-block form computes:
 * Ma'_k * Mb'_k = Ma_k * Mb_k << (budget - taua - taub) term by term
 * (budget = beta_a + beta_b), so summing the folded products is
 * summing each sub-block dot shifted by its combined tau — the same
 * exact integer, reassociated.
 *
 * Every integer step is exact (the GemmPlan proves int64 headroom), so
 * any implementation that reorders the integer work — AVX2 madd lanes,
 * AVX-512 VNNI dot-accumulate lanes reduced by a transpose tree,
 * masked tail loads — produces the same block integer, and the
 * per-block double->float rounding pins the FP result.  The FP32
 * accumulation across blocks is NOT reorderable, so every execution
 * shape below preserves ascending block order per element:
 *
 *  - Cache blocking.  The whole-GEMM drivers walk C in (mc x nc) output
 *    tiles (kTileRowsA x kTileRowsB); inside a tile the kernels loop
 *    kc-sized k1-block panels (kPanelBlocks) outermost, accumulating
 *    each panel's contribution into C.  Panels ascend, and FP32
 *    loads/stores of intermediate sums are exact, so the per-element
 *    addition sequence is identical to one streaming pass.  A register
 *    block of B rows (the microkernel's j unroll) stays resident in L1
 *    across a panel, and the A row's panel slice is reused across every
 *    B row in the tile.
 *  - Multithreading.  matmul_nt_packed{,2} and matmul_nt_prequant
 *    shard the FIXED tile grid across a thread pool sized by
 *    MX_GEMM_THREADS (default: the MX_THREADS pool size; 1 = serial).
 *    The grid never depends on the thread count, and each
 *    C element is computed wholly inside one tile by one thread — all
 *    integer work plus its own FP32 block chain — so results are
 *    bit-identical for any thread count or shard assignment.
 *
 * Scalar, AVX2 and AVX-512 kernels are therefore bit-identical by
 * construction, across any MX_GEMM_THREADS, and
 * tests/test_gemm.cpp asserts it across formats, shapes, ragged
 * widths, thread counts, and dispatch legs.
 *
 * Kernel selection rides core/kernels/dispatch's single SIMD level:
 * AVX-512 (VNNI dot products, one vector lane per output column) when
 * the host reports avx512f/bw/vnni, AVX2 otherwise, scalar when forced
 * (same MX_FORCE_SCALAR / MX_FORCE_AVX2 overrides, same
 * set_simd_level test hook).
 *
 * Knobs:
 *   MX_GEMM=auto      (default) frozen layers take the packed path when
 *                     it is profitable (a SIMD gemm kernel is active)
 *                     or required (the FP32 grid values were dropped);
 *                     otherwise they serve on the dequantized values
 *   MX_GEMM=1         always take the packed path, even on the scalar
 *                     kernel (exercises the reference semantics
 *                     end-to-end; ~5x slower than the values matmul)
 *   MX_GEMM=0         never take the packed path
 *   MX_GEMM_THREADS=N shard output tiles across N lanes (default: the
 *                     shared pool size; 1 = serial, today's behavior;
 *                     0/negative clamp to 1)
 *   MX_GEMM_VERIFY=1  cross-check every packed GEMM against the
 *                     dequantized reference matmul (debugging)
 */

#include <cstdint>

#include "gemm/gemm_plan.h"
#include "gemm/packed_operand.h"
#include "tensor/tensor.h"

namespace mx {
namespace gemm {

/** Half-open output tile [i0, i1) x [j0, j1) of a blocked GEMM.  Tiles
 *  come from the fixed grid, so j0 is a multiple of kTileRowsB. */
struct Tile
{
    std::size_t i0 = 0, i1 = 0; ///< A-row (C-row) range.
    std::size_t j0 = 0, j1 = 0; ///< B-row (C-col) range.
};

/** Output-tile height: A rows per tile (the mc blocking factor). */
inline constexpr std::size_t kTileRowsA = 64;

/** Output-tile width: B rows per tile (the nc factor).  Also
 *  the parallel shard granularity.  One AVX-512 column group: that
 *  kernel's B panel is one group at any tile width, so the narrow tile
 *  costs nothing serially, while a GEMM with few column groups still
 *  spreads evenly over the lanes (48x192x192 gives 4 lanes 12 tiles). */
inline constexpr std::size_t kTileRowsB = 16;

// A tile's column range starts on an exponent-group boundary, so a
// 16-column register block reads one contiguous exponent group.
static_assert(kTileRowsB % kExpGroupRows == 0);

/** k1 blocks per kc panel inside a tile: the contraction slice held
 *  hot while the microkernel sweeps the tile (k1 = 16, int16 mantissas
 *  => 1 KiB of mantissa stream per operand row per panel). */
inline constexpr std::size_t kPanelBlocks = 32;

/**
 * The execute side.  Kernels implement the one TILE entry point; the
 * whole-GEMM gemm() convenience wrapper validates and walks the tile
 * grid serially (the threaded walk lives in the matmul_* drivers).
 * Tile calls assume the driver already validated the operand pair —
 * they are the hot path and run once per tile per thread.
 */
class PackedGemmKernel
{
  public:
    virtual ~PackedGemmKernel() = default;

    /** Implementation name for reports and tests
     *  ("scalar", "avx2", "avx512"). */
    virtual const char* name() const = 0;

    /**
     * Compute the C tile @p t of C[a.rows x b.rows] = A * B^T over the
     * FULL contraction (kc panels are internal).  @p ldc is C's row
     * stride (b.rows for a whole GEMM).  Must write every element of
     * the tile exactly per the file contract, and nothing outside it.
     */
    virtual void gemm_tile(const GemmPlan& plan, const PackedOperand& a,
                           const PackedOperand& b, const Tile& t,
                           float* c, std::size_t ldc) const = 0;

    /**
     * C[a.rows x b.rows] = A * B^T in the packed domain: validate, then
     * walk the tile grid serially.  @p a and @p b must share the
     * contraction width (a.cols == b.cols) and match @p plan's operand
     * plans.
     */
    void gemm(const GemmPlan& plan, const PackedOperand& a,
              const PackedOperand& b, float* c) const;
};

/** The portable reference implementation (always available). */
const PackedGemmKernel& scalar_gemm_kernel();

/** The AVX2 implementation, or nullptr when the build lacks AVX2. */
const PackedGemmKernel* avx2_gemm_kernel();

/** The AVX-512/VNNI implementation, or nullptr when the build lacks
 *  the AVX-512 flags. */
const PackedGemmKernel* avx512_gemm_kernel();

/**
 * The kernel the frozen serving path routes through, slaved to
 * core/kernels/dispatch's SIMD level (CPU probe, MX_FORCE_SCALAR,
 * MX_FORCE_AVX2, set_simd_level test hook): AVX-512 at
 * SimdLevel::Avx512, AVX2 at Avx2, scalar otherwise.
 */
const PackedGemmKernel& active_gemm_kernel();

/**
 * Lanes the threaded matmul_* drivers shard output tiles across.
 * Resolved once from MX_GEMM_THREADS (default: the shared pool's lane
 * count); set_gemm_threads overrides at runtime.
 */
std::size_t gemm_threads();

/** Runtime override of gemm_threads(); 0 re-resolves from the
 *  environment on the next call (test hook + embedder API). */
void set_gemm_threads(std::size_t threads);

/** Routing policy of the frozen serving path. */
enum class Mode
{
    Auto, ///< Packed when profitable (SIMD) or required (values dropped).
    On,   ///< Always packed, even on the scalar kernel.
    Off,  ///< Never packed; serve on the dequantized values.
};

/** The active policy: MX_GEMM in the environment ("0" = Off, "1" = On,
 *  anything else = Auto), overridable at runtime with set_mode(). */
Mode mode();

/** Runtime override of mode(); pins until the next call. */
void set_mode(Mode m);

/** True when the packed path is the faster engine on this host right
 *  now (a SIMD gemm kernel is active). */
bool packed_profitable();

/**
 * The routing decision a frozen layer makes per forward: @p packed_only
 * is true when the layer has no FP32 grid values left to fall back to.
 */
bool route_packed(bool packed_only);

/** Packed GEMMs executed since process start (routing observability:
 *  proves a forward actually took the packed path). */
std::uint64_t call_count();

/**
 * C = X * W^T with X[M, K] float activations and W[N, K] packed:
 * quantizes X on the fly into the execution view (the same
 * quantization the fake-quant path applies) and runs the active
 * packed kernel, sharding output tiles across gemm_threads() lanes.
 * Never materializes a dequantized FP32 copy of W.
 *
 * @p a_plan is the activation-side plan (may differ from w.plan() —
 * Table IV (w, a) format splits); gemm_compatible(a_plan, w.plan())
 * must hold.
 */
tensor::Tensor matmul_nt_packed(const tensor::Tensor& x,
                                const core::kernels::QuantPlan& a_plan,
                                const PackedOperand& w,
                                core::RoundingMode rounding =
                                    core::RoundingMode::NearestEven);

/**
 * Activation-activation C = X * Y^T: both operands are float matrices
 * quantized on the fly (X[M, K] under @p a_plan, Y[N, K] under
 * @p b_plan) and contracted by the active packed kernel.  This is the
 * Q K^T leg of packed attention — and the P V leg of the fixed-window
 * forward, where V is transposed before quantization so its rows run
 * along the reduction.
 */
tensor::Tensor matmul_nt_packed2(const tensor::Tensor& x,
                                 const core::kernels::QuantPlan& a_plan,
                                 const tensor::Tensor& y,
                                 const core::kernels::QuantPlan& b_plan,
                                 core::RoundingMode rounding =
                                     core::RoundingMode::NearestEven);

/**
 * C = A * B^T with BOTH operands already in the execution view — the
 * quantize-once handoff: a caller that feeds one activation matrix to
 * several frozen layers (attention's wq/wk/wv share the post-LN input)
 * quantizes it once and reuses the view.  Bit-identical to
 * matmul_nt_packed on the same floats, because quantization is a pure
 * per-row function of the input.
 */
tensor::Tensor matmul_nt_prequant(const GemmPlan& plan,
                                  const PackedOperand& a,
                                  const PackedOperand& b);

/**
 * c[j] += the file contract's one-block term of A's single row against
 * B's row j, for every row j of @p b: how a caller extends each
 * element's ascending block chain by one more block without another
 * GEMM call (P·V adds each query's open tail block of keys this way
 * after the GEMM over the committed slabs).  @p a is [1 x n] and @p b
 * [rows x n], both one block wide (n <= k1) and matching @p plan.
 */
void add_block_term(const GemmPlan& plan, const PackedOperand& a,
                    const PackedOperand& b, float* c);

/**
 * The operand's grid values — the exact floats the fake-quant path's
 * quantize_rows would produce for the same input (the block codec's
 * decode(encode(x)) == fake_quantize(x) property).  This is the
 * bit-identical FP32 fallback of every packed activation path: grids
 * assembled from stored encodings never re-quantize, so they cannot
 * drift from the reference even where re-quantization would not be
 * idempotent.
 */
tensor::Tensor dequantize(const PackedOperand& op);

namespace detail {

/**
 * One k1-block pair's contribution in the packed domain — the scalar
 * semantics every kernel must reproduce exactly.  Pointers are
 * whole-row folded-mantissa views (PackedOperand::row_mantissa); @p off
 * locates the block inside both rows and @p n is its length (k1 or a
 * ragged tail).
 */
inline float
block_contrib(const GemmPlan& plan, const std::int16_t* am_row, int aexp,
              const std::int16_t* bm_row, int bexp, std::size_t off,
              std::size_t n)
{
    std::int64_t blk = 0;
    for (std::size_t k = off; k < off + n; ++k)
        blk += static_cast<std::int32_t>(am_row[k]) * bm_row[k];
    return static_cast<float>(
        static_cast<double>(blk) *
        core::kernels::detail::pow2_double(aexp + bexp - plan.exp_bias));
}

/**
 * True when (plan) fits the SIMD fast path shared by the AVX2 and
 * AVX-512 kernels: k1 = 16 (one 256-bit vector of int16 mantissas per
 * block) and enough int32 headroom to sum a block's 16 folded products
 * (each below 2^(ma + beta_a + mb + beta_b), 16 of them, plus sign).
 * Any d2 qualifies — the folded view carries no per-sub-block shifts —
 * so plain BFP operands (d2 = 0) take the fast path too.
 */
inline bool
simd_fast_path(const GemmPlan& plan)
{
    return plan.a.k1 == 16 &&
           plan.a.m + plan.b.m + 1 + plan.budget + 3 <= 31;
}

} // namespace detail

} // namespace gemm
} // namespace mx
