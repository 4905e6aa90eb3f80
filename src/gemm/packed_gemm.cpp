#include "gemm/packed_gemm.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>

#include "core/check.h"
#include "core/env.h"
#include "core/kernels/dispatch.h"
#include "core/thread_annotations.h"
#include "core/thread_pool.h"
#include "obs/obs.h"

namespace mx {
namespace gemm {

namespace {

/** GEMMs executed (relaxed: observability only). */
std::atomic<std::uint64_t> g_calls{0};

/** Count one packed GEMM in both the legacy call_count() atomic and
 *  the obs registry (the MX_METRICS / trace-counter view). */
void
count_call()
{
    g_calls.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter& calls = obs::counter("gemm.calls");
    calls.add(1);
}

/** Attach the standard per-call trace args: output shape, output-tile
 *  grid size, k1 blocks per row, active SIMD tier, and an estimate of
 *  packed + output bytes touched.  Skipped entirely when tracing is
 *  off (the span is not recording). */
void
annotate_gemm_span(obs::Span& span, const GemmPlan& plan, std::size_t m,
                   std::size_t n, std::size_t k, std::size_t packed_bytes)
{
    if (!obs::trace_enabled())
        return;
    const std::size_t nti = (m + kTileRowsA - 1) / kTileRowsA;
    const std::size_t ntj = (n + kTileRowsB - 1) / kTileRowsB;
    span.arg("m", static_cast<double>(m));
    span.arg("n", static_cast<double>(n));
    span.arg("k", static_cast<double>(k));
    span.arg("tiles", static_cast<double>(nti * ntj));
    span.arg("k1_blocks", static_cast<double>(plan.blocks_per_row(k)));
    span.arg("simd", static_cast<double>(
                         core::kernels::active_simd_level()));
    span.arg("bytes", static_cast<double>(packed_bytes + m * n * 4));
}

/** -1 = unresolved, else a Mode value. */
std::atomic<int> g_mode{-1};

/** -1 = unresolved, else the MX_GEMM_THREADS lane count. */
std::atomic<long> g_gemm_threads{-1};

int
env_mode()
{
    // The shared knob parser warns once on anything unrecognized —
    // this site used to map "ON", "auto " and "2" to Auto in silence.
    return core::env::enum_knob(
        "MX_GEMM", static_cast<int>(Mode::Auto),
        {{"auto", static_cast<int>(Mode::Auto)},
         {"1", static_cast<int>(Mode::On)},
         {"on", static_cast<int>(Mode::On)},
         {"true", static_cast<int>(Mode::On)},
         {"0", static_cast<int>(Mode::Off)},
         {"off", static_cast<int>(Mode::Off)},
         {"false", static_cast<int>(Mode::Off)}});
}

void
check_pair(const GemmPlan& plan, const PackedOperand& a,
           const PackedOperand& b)
{
    MX_CHECK_ARG(a.valid() && b.valid(), "gemm: invalid operand");
    MX_CHECK_ARG(a.cols() == b.cols(),
                 "gemm: contraction widths differ (" << a.cols() << " vs "
                                                     << b.cols() << ")");
    MX_CHECK_ARG(a.plan().k1 == plan.a.k1 && a.plan().m == plan.a.m &&
                 b.plan().k1 == plan.b.k1 && b.plan().m == plan.b.m,
                 "gemm: operand plans do not match the GemmPlan");
}

class ScalarGemmKernel final : public PackedGemmKernel
{
  public:
    const char* name() const override { return "scalar"; }

    void
    gemm_tile(const GemmPlan& plan, const PackedOperand& a,
              const PackedOperand& b, const Tile& t, float* c,
              std::size_t ldc) const override
    {
        const std::size_t k1 = static_cast<std::size_t>(plan.a.k1);
        const std::size_t cols = a.cols();
        const std::size_t nblocks = (cols + k1 - 1) / k1;
        // kc panels outermost: the tile's B rows stay L1/L2-resident
        // across a panel instead of streaming the whole contraction
        // per output element.  Panels ascend and the intermediate C
        // load/store round-trips are exact, so each element's FP32
        // addition chain equals the streaming order.
        for (std::size_t p0 = 0; p0 < nblocks; p0 += kPanelBlocks) {
            const std::size_t p1 = std::min(nblocks, p0 + kPanelBlocks);
            const bool first = p0 == 0;
            for (std::size_t i = t.i0; i < t.i1; ++i) {
                const std::int16_t* am = a.row_mantissa(i);
                const ExpRow aexp = a.row_exp(i);
                float* crow = c + i * ldc;
                for (std::size_t j = t.j0; j < t.j1; ++j) {
                    const std::int16_t* bm = b.row_mantissa(j);
                    const ExpRow bexp = b.row_exp(j);
                    float acc = first ? 0.0f : crow[j];
                    for (std::size_t blk = p0; blk < p1; ++blk) {
                        const std::size_t off = blk * k1;
                        acc += detail::block_contrib(
                            plan, am, aexp[blk], bm, bexp[blk], off,
                            std::min(k1, cols - off));
                    }
                    crow[j] = acc;
                }
            }
        }
    }

};

/**
 * The pool the blocked drivers shard tiles across.  The default lane
 * count rides the shared process pool; a pinned MX_GEMM_THREADS /
 * set_gemm_threads count gets its own cached pool (tests pin 2 and 7
 * back to back — churning pool threads per GEMM would dwarf the GEMM).
 */
/** Pinned-count pool cache behind pool_for (leaked, like the obs
 *  registries: lanes may still be draining at static destruction). */
core::Mutex g_pools_mu;
std::map<std::size_t, std::unique_ptr<core::ThreadPool>>*
    g_pools MX_GUARDED_BY(g_pools_mu) = nullptr;

core::ThreadPool&
pool_for(std::size_t threads)
{
    // The shared pool's own lane count, not default_thread_count(): that
    // re-reads MX_THREADS and the online-CPU list (~6 us) on every call.
    core::ThreadPool& shared = core::ThreadPool::shared();
    if (threads == shared.thread_count())
        return shared;
    core::LockGuard lk(g_pools_mu);
    if (g_pools == nullptr)
        g_pools =
            new std::map<std::size_t, std::unique_ptr<core::ThreadPool>>;
    std::unique_ptr<core::ThreadPool>& slot = (*g_pools)[threads];
    if (slot == nullptr)
        slot = std::make_unique<core::ThreadPool>(threads);
    return *slot;
}

/**
 * Walk the FIXED (rows x cols) output-tile grid, sharding whole tiles
 * across gemm_threads() lanes.  The grid depends only on the output
 * shape — never on the thread count — and every C element lives in
 * exactly one tile, so any lane-to-tile assignment is bit-identical.
 */
template <typename TileFn>
void
run_tiled(std::size_t rows, std::size_t cols, const TileFn& run_tile)
{
    const std::size_t nti = (rows + kTileRowsA - 1) / kTileRowsA;
    const std::size_t ntj = (cols + kTileRowsB - 1) / kTileRowsB;
    const std::size_t ntiles = nti * ntj;
    const auto tile_at = [&](std::size_t t) {
        const std::size_t i0 = (t / ntj) * kTileRowsA;
        const std::size_t j0 = (t % ntj) * kTileRowsB;
        return Tile{i0, std::min(rows, i0 + kTileRowsA), j0,
                    std::min(cols, j0 + kTileRowsB)};
    };
    const std::size_t threads = gemm_threads();
    if (threads <= 1 || ntiles <= 1) {
        for (std::size_t t = 0; t < ntiles; ++t)
            run_tile(tile_at(t));
        return;
    }
    pool_for(threads).parallel_for(
        ntiles, [&](std::size_t t) { run_tile(tile_at(t)); });
}

/** The threaded whole-GEMM drivers the matmul_* entry points run. */
void
run_gemm(const PackedGemmKernel& kernel, const GemmPlan& plan,
         const PackedOperand& a, const PackedOperand& b, float* c)
{
    check_pair(plan, a, b);
    run_tiled(a.rows(), b.rows(), [&](const Tile& t) {
        kernel.gemm_tile(plan, a, b, t, c, b.rows());
    });
}

} // namespace

void
PackedGemmKernel::gemm(const GemmPlan& plan, const PackedOperand& a,
                       const PackedOperand& b, float* c) const
{
    check_pair(plan, a, b);
    for (std::size_t i0 = 0; i0 < a.rows(); i0 += kTileRowsA)
        for (std::size_t j0 = 0; j0 < b.rows(); j0 += kTileRowsB)
            gemm_tile(plan, a, b,
                      Tile{i0, std::min(a.rows(), i0 + kTileRowsA), j0,
                           std::min(b.rows(), j0 + kTileRowsB)},
                      c, b.rows());
}

tensor::Tensor
dequantize(const PackedOperand& op)
{
    MX_CHECK_ARG(op.valid(), "gemm::dequantize: invalid operand");
    const core::kernels::QuantPlan& p = op.plan();
    tensor::Tensor t({static_cast<std::int64_t>(op.rows()),
                      static_cast<std::int64_t>(op.cols())});
    for (std::size_t r = 0; r < op.rows(); ++r) {
        const std::int16_t* mant = op.row_mantissa(r);
        const ExpRow exp = op.row_exp(r);
        float* out = t.data() + r * op.cols();
        for (std::size_t k = 0; k < op.cols(); ++k) {
            // Folded mantissas carry 2^(beta - tau): M' * 2^(E - beta -
            // (m - 1)) is the grid value M * 2^(E - tau - (m - 1)).
            const int e = exp[k / static_cast<std::size_t>(p.k1)] -
                          p.beta - (p.m - 1);
            out[k] = static_cast<float>(
                static_cast<double>(mant[k]) *
                core::kernels::detail::pow2_double(e));
        }
    }
    return t;
}

const PackedGemmKernel&
scalar_gemm_kernel()
{
    static const ScalarGemmKernel kernel;
    return kernel;
}

const PackedGemmKernel&
active_gemm_kernel()
{
    // Slaved to the quantize-kernel dispatch: same CPU probe, same
    // MX_FORCE_SCALAR / MX_FORCE_AVX2 overrides, same set_simd_level
    // test hook — the quantize and GEMM legs can never mix tiers.
    switch (core::kernels::active_simd_level()) {
      case core::kernels::SimdLevel::Avx512:
        if (const PackedGemmKernel* k = avx512_gemm_kernel())
            return *k;
        [[fallthrough]];
      case core::kernels::SimdLevel::Avx2:
        if (const PackedGemmKernel* k = avx2_gemm_kernel())
            return *k;
        [[fallthrough]];
      case core::kernels::SimdLevel::Scalar:
        break;
    }
    return scalar_gemm_kernel();
}

std::size_t
gemm_threads()
{
    long t = g_gemm_threads.load(std::memory_order_acquire);
    if (t < 0) {
        // Benign race: concurrent first calls resolve identically.
        t = static_cast<long>(core::env::size_knob(
            "MX_GEMM_THREADS", core::ThreadPool::default_thread_count(),
            /*min_value=*/1));
        g_gemm_threads.store(t, std::memory_order_release);
    }
    return static_cast<std::size_t>(t);
}

void
set_gemm_threads(std::size_t threads)
{
    g_gemm_threads.store(threads == 0 ? -1 : static_cast<long>(threads),
                         std::memory_order_release);
}

Mode
mode()
{
    int m = g_mode.load(std::memory_order_acquire);
    if (m < 0) {
        // Benign race: concurrent first calls resolve identically.
        m = env_mode();
        g_mode.store(m, std::memory_order_release);
    }
    return static_cast<Mode>(m);
}

void
set_mode(Mode m)
{
    g_mode.store(static_cast<int>(m), std::memory_order_release);
}

bool
packed_profitable()
{
    return &active_gemm_kernel() != &scalar_gemm_kernel();
}

bool
route_packed(bool packed_only)
{
    switch (mode()) {
      case Mode::Off: return false;
      case Mode::On: return true;
      case Mode::Auto: return packed_only || packed_profitable();
    }
    return false;
}

std::uint64_t
call_count()
{
    return g_calls.load(std::memory_order_relaxed);
}

tensor::Tensor
matmul_nt_packed(const tensor::Tensor& x,
                 const core::kernels::QuantPlan& a_plan,
                 const PackedOperand& w, core::RoundingMode rounding)
{
    MX_CHECK_ARG(x.ndim() == 2 && w.valid() &&
                 x.dim(1) == static_cast<std::int64_t>(w.cols()),
                 "matmul_nt_packed: activation shape "
                     << x.shape_string() << " does not match packed ["
                     << w.rows() << " x " << w.cols() << "]");
    const GemmPlan plan = make_gemm_plan(a_plan, w.plan());
    obs::Span span("gemm.nt_packed");
    core::Rounder rounder(rounding);
    const PackedOperand a = PackedOperand::quantize(
        a_plan, x.data(), static_cast<std::size_t>(x.dim(0)), w.cols(),
        rounder);
    annotate_gemm_span(span, plan, a.rows(), w.rows(), w.cols(),
                       a.memory_bytes() + w.memory_bytes());
    tensor::Tensor c(
        {x.dim(0), static_cast<std::int64_t>(w.rows())});
    run_gemm(active_gemm_kernel(), plan, a, w, c.data());
    count_call();
    return c;
}

tensor::Tensor
matmul_nt_packed2(const tensor::Tensor& x,
                  const core::kernels::QuantPlan& a_plan,
                  const tensor::Tensor& y,
                  const core::kernels::QuantPlan& b_plan,
                  core::RoundingMode rounding)
{
    MX_CHECK_ARG(x.ndim() == 2 && y.ndim() == 2 && x.dim(1) == y.dim(1),
                 "matmul_nt_packed2: " << x.shape_string() << " x "
                                       << y.shape_string());
    const GemmPlan plan = make_gemm_plan(a_plan, b_plan);
    core::Rounder rounder(rounding);
    const PackedOperand a = PackedOperand::quantize(
        a_plan, x.data(), static_cast<std::size_t>(x.dim(0)),
        static_cast<std::size_t>(x.dim(1)), rounder);
    const PackedOperand b = PackedOperand::quantize(
        b_plan, y.data(), static_cast<std::size_t>(y.dim(0)),
        static_cast<std::size_t>(y.dim(1)), rounder);
    return matmul_nt_prequant(plan, a, b);
}

tensor::Tensor
matmul_nt_prequant(const GemmPlan& plan, const PackedOperand& a,
                   const PackedOperand& b)
{
    obs::Span span("gemm.nt_prequant");
    annotate_gemm_span(span, plan, a.rows(), b.rows(), a.cols(),
                       a.memory_bytes() + b.memory_bytes());
    tensor::Tensor c({static_cast<std::int64_t>(a.rows()),
                      static_cast<std::int64_t>(b.rows())});
    run_gemm(active_gemm_kernel(), plan, a, b, c.data());
    count_call();
    return c;
}

void
add_block_term(const GemmPlan& plan, const PackedOperand& a,
               const PackedOperand& b, float* c)
{
    MX_CHECK_ARG(a.valid() && b.valid() && a.rows() == 1 &&
                     a.cols() == b.cols() &&
                     a.cols() <= static_cast<std::size_t>(plan.a.k1),
                 "add_block_term: [" << a.rows() << " x " << a.cols()
                                     << "] x [" << b.rows() << " x "
                                     << b.cols()
                                     << "] is not one block pair");
    const std::int16_t* am = a.row_mantissa(0);
    const int aexp = a.row_exp(0)[0];
    for (std::size_t j = 0; j < b.rows(); ++j)
        c[j] += detail::block_contrib(plan, am, aexp, b.row_mantissa(j),
                                      b.row_exp(j)[0], 0, a.cols());
}

} // namespace gemm
} // namespace mx
