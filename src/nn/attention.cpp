#include "nn/attention.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/check.h"
#include "gemm/packed_gemm.h"
#include "obs/obs.h"

namespace mx {
namespace nn {

using tensor::Tensor;

std::int64_t
AttnPrefixCache::truncate(std::int64_t rows)
{
    if (rows < 0)
        rows = 0;
    if (rows >= prefix)
        return prefix;
    static obs::Counter& truncates = obs::counter("attn.truncates");
    truncates.add(1);
    if (!native) {
        if (rows == 0) {
            k = Tensor();
            v = Tensor();
            prefix = 0;
            return 0;
        }
        const std::int64_t d = k.dim(1);
        Tensor nk({rows, d});
        Tensor nv({rows, d});
        std::copy(k.data(), k.data() + rows * d, nk.data());
        std::copy(v.data(), v.data() + rows * d, nv.data());
        k = std::move(nk);
        v = std::move(nv);
        prefix = rows;
        return rows;
    }
    // Native streams: the K rows and the open V tail shed keys freely,
    // but a cut inside a COMMITTED V slab must retreat to the k1 block
    // boundary below it — the slab's raw floats are gone, and the
    // native cache never re-quantizes (that is its whole contract).
    const std::int64_t k1 = plan.k1;
    const std::int64_t committed =
        k1 * static_cast<std::int64_t>(v_slabs.size());
    std::int64_t keep = rows;
    if (keep < committed)
        keep = k1 * (keep / k1);
    const std::int64_t new_slabs = std::min(
        static_cast<std::int64_t>(v_slabs.size()), keep / k1);
    v_slabs.resize(static_cast<std::size_t>(new_slabs));
    v_tail.resize(
        static_cast<std::size_t>((keep - k1 * new_slabs) * d_model));
    const std::size_t stride = gemm::row_stream_bytes(
        plan, static_cast<std::size_t>(head_dim));
    for (std::vector<std::uint8_t>& stream : k_heads)
        stream.resize(static_cast<std::size_t>(keep) * stride);
    prefix = keep;
    return keep;
}

std::size_t
AttnPrefixCache::memory_bytes() const
{
    std::size_t total = static_cast<std::size_t>(k.numel() + v.numel()) *
                        sizeof(float);
    for (const std::vector<std::uint8_t>& stream : k_heads)
        total += stream.size();
    for (const std::vector<std::uint8_t>& slab : v_slabs)
        total += slab.size();
    total += v_tail.size() * sizeof(float);
    return total;
}

MultiHeadAttention::MultiHeadAttention(std::int64_t d_model,
                                       std::int64_t heads,
                                       std::int64_t seq_len, bool causal,
                                       QuantSpec spec, stats::Rng& rng)
    : d_model_(d_model),
      heads_(heads),
      head_dim_(d_model / heads),
      seq_len_(seq_len),
      causal_(causal),
      spec_(std::move(spec))
{
    MX_CHECK_ARG(d_model % heads == 0,
                 "MultiHeadAttention: d_model must be divisible by heads");
    wq_ = std::make_unique<Linear>(d_model, d_model, spec_, rng, false);
    wk_ = std::make_unique<Linear>(d_model, d_model, spec_, rng, false);
    wv_ = std::make_unique<Linear>(d_model, d_model, spec_, rng, false);
    wo_ = std::make_unique<Linear>(d_model, d_model, spec_, rng, false);
}

void
MultiHeadAttention::freeze()
{
    wq_->freeze();
    wk_->freeze();
    wv_->freeze();
    wo_->freeze();
}

void
MultiHeadAttention::freeze(const QuantSpec& spec)
{
    set_spec(spec);
    freeze();
}

void
MultiHeadAttention::unfreeze()
{
    wq_->unfreeze();
    wk_->unfreeze();
    wv_->unfreeze();
    wo_->unfreeze();
}

bool
MultiHeadAttention::frozen() const
{
    return wq_->frozen();
}

void
MultiHeadAttention::set_spec(const QuantSpec& spec)
{
    spec_ = spec;
    wq_->spec() = spec;
    wk_->spec() = spec;
    wv_->spec() = spec;
    wo_->spec() = spec;
}

bool
MultiHeadAttention::native_cache_format() const
{
    if (!causal_ || !spec_.forward.has_value() ||
        spec_.forward->s_kind != core::ScaleKind::Pow2Hw ||
        spec_.forward->elem != core::ElementKind::SignMagnitude)
        return false;
    const core::kernels::QuantPlan plan =
        core::kernels::make_quant_plan(*spec_.forward);
    return gemm::operand_eligible(plan) &&
           gemm::gemm_compatible(plan, plan);
}

bool
MultiHeadAttention::packed_act_act() const
{
    if (!frozen() || !spec_.forward.has_value() ||
        spec_.forward->s_kind != core::ScaleKind::Pow2Hw ||
        spec_.forward->elem != core::ElementKind::SignMagnitude)
        return false;
    const core::kernels::QuantPlan plan =
        core::kernels::make_quant_plan(*spec_.forward);
    return gemm::operand_eligible(plan) &&
           gemm::gemm_compatible(plan, plan) && gemm::route_packed(false);
}

void
MultiHeadAttention::project_qkv(const Tensor& x, Tensor& q, Tensor& k,
                                Tensor& v)
{
    // Quantize-once handoff: the three projections consume the SAME
    // input rows, so when all three would run packed anyway, build the
    // activation view once and hand it to each — bit-identical to three
    // independent forwards because quantization is a pure per-row
    // function of the input.
    if (wq_->packed_activation_ready() &&
        wk_->packed_activation_ready() &&
        wv_->packed_activation_ready()) {
        const core::kernels::QuantPlan aplan =
            core::kernels::make_quant_plan(*spec_.forward);
        const core::Rounder rounder(spec_.rounding);
        const gemm::PackedOperand xq = gemm::PackedOperand::quantize(
            aplan, x.data(), static_cast<std::size_t>(x.dim(0)),
            static_cast<std::size_t>(x.dim(1)), rounder);
        q = wq_->forward_packed_activation(xq);
        k = wk_->forward_packed_activation(xq);
        v = wv_->forward_packed_activation(xq);
        return;
    }
    q = wq_->forward(x, /*train=*/false);
    k = wk_->forward(x, /*train=*/false);
    v = wv_->forward(x, /*train=*/false);
}

Tensor
MultiHeadAttention::slice_head(const Tensor& packed, std::int64_t b,
                               std::int64_t h) const
{
    Tensor out({seq_len_, head_dim_});
    for (std::int64_t t = 0; t < seq_len_; ++t) {
        const float* row = packed.data() + (b * seq_len_ + t) * d_model_ +
                           h * head_dim_;
        std::copy(row, row + head_dim_, out.data() + t * head_dim_);
    }
    return out;
}

void
MultiHeadAttention::scatter_head(Tensor& packed, const Tensor& head,
                                 std::int64_t b, std::int64_t h) const
{
    for (std::int64_t t = 0; t < seq_len_; ++t) {
        float* row = packed.data() + (b * seq_len_ + t) * d_model_ +
                     h * head_dim_;
        const float* src = head.data() + t * head_dim_;
        for (std::int64_t j = 0; j < head_dim_; ++j)
            row[j] += src[j];
    }
}

Tensor
MultiHeadAttention::forward(const Tensor& x, bool train)
{
    MX_CHECK_ARG(x.ndim() == 2 && x.dim(1) == d_model_ &&
                 x.dim(0) % seq_len_ == 0,
                 "MultiHeadAttention: input " << x.shape_string());
    const std::int64_t batch = x.dim(0) / seq_len_;
    if (train)
        cached_batch_ = batch; // eval forwards stay mutation-free so
                               // frozen models can serve concurrently

    Tensor q, k, v;
    if (!train && frozen()) {
        project_qkv(x, q, k, v);
    } else {
        q = wq_->forward(x, train);
        k = wk_->forward(x, train);
        v = wv_->forward(x, train);
    }

    if (train)
        cache_.assign(static_cast<std::size_t>(batch * heads_), HeadCache{});

    // Frozen eval forwards run the activation-activation contractions
    // (Q K^T, P V) on the packed kernels when the routing policy
    // engages them; both engines quantize the operands identically.
    const bool packed_aa = !train && packed_act_act();
    const core::kernels::QuantPlan aplan =
        packed_aa ? core::kernels::make_quant_plan(*spec_.forward)
                  : core::kernels::QuantPlan{};

    const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
    Tensor concat = Tensor::zeros({batch * seq_len_, d_model_});

    for (std::int64_t b = 0; b < batch; ++b) {
        for (std::int64_t h = 0; h < heads_; ++h) {
            Tensor qh = slice_head(q, b, h);
            Tensor kh = slice_head(k, b, h);
            Tensor vh = slice_head(v, b, h);

            // scores = (Q K^T) * scale: reduction over head_dim (rows of
            // both operands), so qmatmul_nt quantizes along the right dim.
            Tensor scores =
                packed_aa
                    ? gemm::matmul_nt_packed2(qh, aplan, kh, aplan,
                                              spec_.rounding)
                    : qmatmul_nt(qh, kh, spec_.forward, spec_.rounding);
            for (std::int64_t i = 0; i < seq_len_; ++i) {
                for (std::int64_t j = 0; j < seq_len_; ++j) {
                    float& s = scores.data()[i * seq_len_ + j];
                    s *= scale;
                    if (causal_ && j > i)
                        s = -std::numeric_limits<float>::infinity();
                }
            }
            Tensor probs = tensor::softmax_rows(scores);

            // ctx = P V: reduction over keys; V is transposed before
            // quantization so its rows run along the reduction dim.
            Tensor vt = tensor::transpose2d(vh);
            Tensor ctx =
                packed_aa
                    ? gemm::matmul_nt_packed2(probs, aplan, vt, aplan,
                                              spec_.rounding)
                    : qmatmul_nt(probs, vt, spec_.forward, spec_.rounding);
            scatter_head(concat, ctx, b, h);

            if (train) {
                HeadCache& c = cache_[static_cast<std::size_t>(
                    b * heads_ + h)];
                c.q = std::move(qh);
                c.k = std::move(kh);
                c.v = std::move(vh);
                c.probs = std::move(probs);
            }
        }
    }
    return wo_->forward(concat, train);
}

bool
MultiHeadAttention::prefix_reusable() const
{
    // Non-causal attention lets every position see the whole window, so
    // no prefix row is ever stable.  Per-tensor-scaled activation
    // formats couple rows through one JIT scale, so only the pow2
    // block family (and FP32) quantizes suffix rows independently.
    if (!causal_)
        return false;
    if (!spec_.forward.has_value())
        return true;
    return spec_.forward->s_kind == core::ScaleKind::Pow2Hw &&
           spec_.forward->elem == core::ElementKind::SignMagnitude;
}

Tensor
MultiHeadAttention::forward_suffix(const Tensor& x_suffix,
                                   AttnPrefixCache& cache)
{
    const std::int64_t p = cache.prefix;
    const std::int64_t s = x_suffix.ndim() == 2 ? x_suffix.dim(0) : 0;
    const std::int64_t n = p + s; // visible positions after this call
    obs::Span span("attn.forward_suffix");
    span.arg("prefix", static_cast<double>(p));
    span.arg("suffix", static_cast<double>(s));
    static obs::Counter& appended = obs::counter("attn.append.tokens");
    if (s > 0)
        appended.add(static_cast<std::uint64_t>(s));
    MX_CHECK_ARG(causal_, "MultiHeadAttention: forward_suffix is a "
                          "causal decode path");
    // From-scratch calls (p == 0) are legal under any format — they
    // quantize the same tensors every time, so the result is a pure
    // function of the inputs.  Actually *reusing* cached rows needs
    // row-independent quantization; callers gate caching on
    // prefix_reusable(), and this backstops them.
    MX_CHECK_ARG(p == 0 || prefix_reusable(),
                 "MultiHeadAttention: a cached prefix needs a "
                 "row-independent activation format");
    MX_CHECK_ARG(x_suffix.ndim() == 2 && s >= 1 &&
                 x_suffix.dim(1) == d_model_,
                 "MultiHeadAttention: suffix " << x_suffix.shape_string()
                     << " expects [*, " << d_model_ << "]");
    MX_CHECK_ARG(p >= 0 && n <= seq_len_,
                 "MultiHeadAttention: prefix " << p << " + suffix " << s
                     << " overflows a " << seq_len_
                     << "-position window");

    // Storage mode: a fresh stream adopts native packed streams when
    // the format permits; a live stream continues in the mode its
    // prefix was stored under (it cannot be converted — the raw floats
    // behind committed native blocks are gone).
    if (p == 0) {
        cache = AttnPrefixCache{};
        cache.native = native_cache_format();
        if (cache.native) {
            cache.plan = core::kernels::make_quant_plan(*spec_.forward);
            cache.d_model = d_model_;
            cache.head_dim = head_dim_;
            cache.k_heads.assign(static_cast<std::size_t>(heads_), {});
        }
    } else if (cache.native) {
        MX_CHECK_ARG(cache.d_model == d_model_ &&
                     cache.head_dim == head_dim_ &&
                     cache.k_heads.size() ==
                         static_cast<std::size_t>(heads_),
                     "MultiHeadAttention: prefix cache shape drifted");
        const core::kernels::QuantPlan now =
            native_cache_format()
                ? core::kernels::make_quant_plan(*spec_.forward)
                : core::kernels::QuantPlan{};
        MX_CHECK_ARG(now.m == cache.plan.m && now.d1 == cache.plan.d1 &&
                     now.k1 == cache.plan.k1 &&
                     now.d2 == cache.plan.d2 && now.k2 == cache.plan.k2,
                     "MultiHeadAttention: activation format changed "
                     "under a native cached prefix");
    } else {
        MX_CHECK_ARG(cache.k.ndim() == 2 && cache.k.dim(0) == p &&
                     cache.k.dim(1) == d_model_ &&
                     cache.v.same_shape(cache.k),
                     "MultiHeadAttention: prefix cache shape drifted");
    }

    // Project only the suffix rows; Linear eval forwards are row-wise,
    // so these rows never depend on which rows ride along.  The three
    // projections share one quantized view of x_suffix when the packed
    // path serves them (quantize-once handoff).
    Tensor q_suf, k_suf, v_suf;
    project_qkv(x_suffix, q_suf, k_suf, v_suf);

    // [rows, d_model] -> one head's [rows, head_dim] slice.
    auto take_head = [this](const Tensor& packed, std::int64_t rows,
                            std::int64_t h) {
        Tensor out({rows, head_dim_});
        for (std::int64_t t = 0; t < rows; ++t)
            std::copy(packed.data() + t * d_model_ + h * head_dim_,
                      packed.data() + t * d_model_ + (h + 1) * head_dim_,
                      out.data() + t * head_dim_);
        return out;
    };

    const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
    Tensor concat = Tensor::zeros({s, d_model_});

    if (!cache.native) {
        // Legacy FP32 storage: append raw post-projection rows and
        // re-quantize on use — the path formats outside the packed
        // family (and FP32 specs) serve on.
        Tensor k_all({n, d_model_});
        Tensor v_all({n, d_model_});
        if (p > 0) {
            std::copy(cache.k.data(), cache.k.data() + p * d_model_,
                      k_all.data());
            std::copy(cache.v.data(), cache.v.data() + p * d_model_,
                      v_all.data());
        }
        std::copy(k_suf.data(), k_suf.data() + s * d_model_,
                  k_all.data() + p * d_model_);
        std::copy(v_suf.data(), v_suf.data() + s * d_model_,
                  v_all.data() + p * d_model_);

        for (std::int64_t h = 0; h < heads_; ++h) {
            Tensor qh = take_head(q_suf, s, h);
            Tensor kh = take_head(k_all, n, h);
            Tensor vh = take_head(v_all, n, h);

            // Suffix query rows against every visible key.  Q K^T
            // quantizes per row (queries along head_dim, keys along
            // head_dim), so key row t's quantization is independent of
            // how many keys exist — scores for masked keys are computed
            // and discarded, never leaked.
            Tensor scores =
                qmatmul_nt(qh, kh, spec_.forward, spec_.rounding);
            for (std::int64_t i = 0; i < s; ++i) {
                for (std::int64_t j = 0; j < n; ++j) {
                    float& sc = scores.data()[i * n + j];
                    sc *= scale;
                    if (j > p + i)
                        sc = -std::numeric_limits<float>::infinity();
                }
            }
            Tensor probs = tensor::softmax_rows(scores);

            // ctx row i = P V over EXACTLY the row's visible keys
            // [0, p+i]: the reduction runs along keys, so the
            // transposed-V quantization blocks must span only keys the
            // position may see.  This is the causal-visibility
            // discipline a native MX KV cache implements for free (key
            // blocks are appended, never re-quantized when later tokens
            // arrive) — and it is what makes position p+i's output a
            // pure function of tokens [0, p+i], i.e. what makes prefix
            // reuse exact.
            for (std::int64_t i = 0; i < s; ++i) {
                const std::int64_t vis = p + i + 1;
                Tensor prow({1, vis});
                std::copy(probs.data() + i * n,
                          probs.data() + i * n + vis, prow.data());
                Tensor vt({head_dim_, vis}); // V^T sliced to visible keys
                for (std::int64_t d = 0; d < head_dim_; ++d)
                    for (std::int64_t t = 0; t < vis; ++t)
                        vt.data()[d * vis + t] =
                            vh.data()[t * head_dim_ + d];
                Tensor crow = qmatmul_nt(prow, vt, spec_.forward,
                                         spec_.rounding); // [1, head_dim]
                float* row = concat.data() + i * d_model_ + h * head_dim_;
                for (std::int64_t j = 0; j < head_dim_; ++j)
                    row[j] += crow.data()[j];
            }
        }

        // The appended keys become the new prefix.
        cache.k = std::move(k_all);
        cache.v = std::move(v_all);
        cache.prefix = n;
        return wo_->forward(concat, /*train=*/false);
    }

    // ---- Native MX storage ----------------------------------------
    // The prefix lives as the quantization blocks themselves.  Each
    // new token is quantized ONCE right here; every later step only
    // moves bytes.  The causal-visibility discipline maps exactly onto
    // this storage: K rows quantize along head_dim (per key, stable
    // forever), and transposed-V blocks quantize along keys at k1
    // boundaries — a completed [d_model, k1] slab is identical for
    // every later position, so it is committed once; only the open
    // tail block still depends on the position and stays raw.
    const core::kernels::QuantPlan& aplan = cache.plan;
    const core::Rounder rounder(spec_.rounding);
    const std::int64_t k1 = aplan.k1;

    // Append the new keys: one packed row per (head, key).
    {
        std::vector<float> head_rows(
            static_cast<std::size_t>(s * head_dim_));
        for (std::int64_t h = 0; h < heads_; ++h) {
            for (std::int64_t t = 0; t < s; ++t)
                std::copy(
                    k_suf.data() + t * d_model_ + h * head_dim_,
                    k_suf.data() + t * d_model_ + (h + 1) * head_dim_,
                    head_rows.data() + t * head_dim_);
            gemm::pack_rows_aligned(aplan, head_rows.data(),
                                    static_cast<std::size_t>(s),
                                    static_cast<std::size_t>(head_dim_),
                                    rounder,
                                    cache.k_heads[static_cast<
                                        std::size_t>(h)]);
        }
    }

    // Raw V rows for every key past the last committed slab: the old
    // tail plus this call's suffix, covering keys [raw_base, n).
    const std::int64_t slabs_old =
        static_cast<std::int64_t>(cache.v_slabs.size());
    const std::int64_t raw_base = k1 * slabs_old;
    std::vector<float> raw_all = std::move(cache.v_tail);
    raw_all.resize(static_cast<std::size_t>((n - raw_base) * d_model_));
    std::copy(v_suf.data(), v_suf.data() + s * d_model_,
              raw_all.data() + (p - raw_base) * d_model_);

    // Commit every k1-key block this call completes as a packed
    // [d_model, k1] slab of transposed V, quantized along keys.
    const std::int64_t slabs_new = n / k1;
    if (slabs_new > slabs_old) {
        static obs::Counter& commits = obs::counter("attn.slab_commits");
        commits.add(static_cast<std::uint64_t>(slabs_new - slabs_old));
        std::vector<float> vt_chunk(
            static_cast<std::size_t>(d_model_ * k1));
        for (std::int64_t b = slabs_old; b < slabs_new; ++b) {
            for (std::int64_t d = 0; d < d_model_; ++d)
                for (std::int64_t t = 0; t < k1; ++t)
                    vt_chunk[static_cast<std::size_t>(d * k1 + t)] =
                        raw_all[static_cast<std::size_t>(
                            (k1 * b + t - raw_base) * d_model_ + d)];
            std::vector<std::uint8_t> slab;
            gemm::pack_rows_aligned(aplan, vt_chunk.data(),
                                    static_cast<std::size_t>(d_model_),
                                    static_cast<std::size_t>(k1),
                                    rounder, slab);
            cache.v_slabs.push_back(std::move(slab));
        }
    }

    // Execution views, decoded once per call straight from the byte
    // streams — the integer domain; no dequantized prefix exists.  Each
    // head's committed V^T, [head_dim, slabs * k1], reads its rows of
    // every slab as one ordinary NT operand.
    const std::int64_t committed = slabs_new * k1;
    std::vector<gemm::PackedOperand> k_ops, v_ops;
    {
        obs::Span decode_span("attn.decode_prefix");
        k_ops.reserve(static_cast<std::size_t>(heads_));
        for (std::int64_t h = 0; h < heads_; ++h)
            k_ops.push_back(gemm::PackedOperand::decode_rows(
                aplan, cache.k_heads[static_cast<std::size_t>(h)],
                static_cast<std::size_t>(n),
                static_cast<std::size_t>(head_dim_)));
        if (committed > 0)
            for (std::int64_t h = 0; h < heads_; ++h)
                v_ops.push_back(gemm::PackedOperand::decode_slab_rows(
                    aplan, cache.v_slabs,
                    static_cast<std::size_t>(h * head_dim_),
                    static_cast<std::size_t>(head_dim_)));
        decode_span.arg("elems",
                        static_cast<double>(heads_ * head_dim_ *
                                            (n + committed)));
    }

    const bool packed_exec = packed_act_act();
    const gemm::GemmPlan gp = gemm::make_gemm_plan(aplan, aplan);
    // Grid fallback (packed routing off): dequantize the SAME stored
    // encodings — never re-quantize — so it cannot drift from the
    // legacy fake-quant path even where re-quantization would not be
    // idempotent.
    std::vector<Tensor> k_grids, v_grids;
    if (!packed_exec) {
        for (const gemm::PackedOperand& op : k_ops)
            k_grids.push_back(gemm::dequantize(op));
        for (const gemm::PackedOperand& op : v_ops)
            v_grids.push_back(gemm::dequantize(op));
    }

    // One query row's transposed raw V tail [head_dim, tlen], refilled
    // for every (head, row): a tail is shorter than one block.
    std::vector<float> vt_tail(static_cast<std::size_t>(head_dim_ * (k1 - 1)));
    for (std::int64_t h = 0; h < heads_; ++h) {
        const auto hu = static_cast<std::size_t>(h);
        Tensor qh = take_head(q_suf, s, h);

        // Q K^T straight off the packed key rows.
        Tensor scores =
            packed_exec
                ? gemm::matmul_nt_packed(qh, aplan, k_ops[hu],
                                         spec_.rounding)
                : tensor::matmul_nt(
                      quantize_rows(qh, *spec_.forward, spec_.rounding),
                      k_grids[hu]);
        for (std::int64_t i = 0; i < s; ++i) {
            for (std::int64_t j = 0; j < n; ++j) {
                float& sc = scores.data()[i * n + j];
                sc *= scale;
                if (j > p + i)
                    sc = -std::numeric_limits<float>::infinity();
            }
        }
        Tensor probs = tensor::softmax_rows(scores);

        // P V, row i over its visible keys [0, vis): the nb committed
        // slabs it sees, then its open tail block [nb * k1, vis),
        // quantized here from raw floats — exactly the blocks the
        // causal-visibility discipline defines.  Packed, every row's
        // committed part is ONE NT GEMM against the head's V^T, with
        // the row's columns past nb * k1 zeroed: a zero block adds
        // float(0 * 2^e) = +0, which leaves an FP32 sum that started at
        // +0 unchanged, so each element's chain is still blocks
        // 0..nb-1 in order.  The tail block then extends it by the
        // contract's one-block term.
        Tensor ctx = Tensor::zeros({s, head_dim_});
        if (packed_exec && committed > 0) {
            std::vector<float> pc(static_cast<std::size_t>(s * committed),
                                  0.0f);
            for (std::int64_t i = 0; i < s; ++i)
                std::copy(probs.data() + i * n,
                          probs.data() + i * n + (p + i + 1) / k1 * k1,
                          pc.data() + i * committed);
            ctx = gemm::matmul_nt_prequant(
                gp,
                gemm::PackedOperand::quantize(
                    aplan, pc.data(), static_cast<std::size_t>(s),
                    static_cast<std::size_t>(committed), rounder),
                v_ops[hu]);
        }
        for (std::int64_t i = 0; i < s; ++i) {
            const std::int64_t vis = p + i + 1;
            const std::int64_t nb = vis / k1; // full slabs visible
            const std::int64_t tlen = vis - nb * k1;
            for (std::int64_t d = 0; d < head_dim_; ++d)
                for (std::int64_t t = 0; t < tlen; ++t)
                    vt_tail[static_cast<std::size_t>(d * tlen + t)] =
                        raw_all[static_cast<std::size_t>(
                            (nb * k1 + t - raw_base) * d_model_ +
                            h * head_dim_ + d)];

            float* crow = ctx.data() + i * head_dim_;
            if (packed_exec) {
                if (tlen > 0)
                    gemm::add_block_term(
                        gp,
                        gemm::PackedOperand::quantize(
                            aplan, probs.data() + i * n + nb * k1, 1,
                            static_cast<std::size_t>(tlen), rounder),
                        gemm::PackedOperand::quantize(
                            aplan, vt_tail.data(),
                            static_cast<std::size_t>(head_dim_),
                            static_cast<std::size_t>(tlen), rounder),
                        crow);
            } else {
                // Assemble the visible V^T grid from the head's V^T
                // grid plus the quantized tail, then contract in FP32.
                Tensor prow({1, vis});
                std::copy(probs.data() + i * n,
                          probs.data() + i * n + vis, prow.data());
                Tensor vt_grid({head_dim_, vis});
                if (nb > 0)
                    for (std::int64_t d = 0; d < head_dim_; ++d)
                        std::copy(v_grids[hu].data() + d * committed,
                                  v_grids[hu].data() + d * committed +
                                      nb * k1,
                                  vt_grid.data() + d * vis);
                if (tlen > 0) {
                    Tensor tg = quantize_rows(
                        Tensor({head_dim_, tlen},
                               std::vector<float>(
                                   vt_tail.begin(),
                                   vt_tail.begin() + head_dim_ * tlen)),
                        *spec_.forward, spec_.rounding);
                    for (std::int64_t d = 0; d < head_dim_; ++d)
                        std::copy(tg.data() + d * tlen,
                                  tg.data() + d * tlen + tlen,
                                  vt_grid.data() + d * vis + nb * k1);
                }
                Tensor g = tensor::matmul_nt(
                    quantize_rows(prow, *spec_.forward, spec_.rounding),
                    vt_grid);
                std::copy(g.data(), g.data() + head_dim_, crow);
            }
            float* row = concat.data() + i * d_model_ + h * head_dim_;
            for (std::int64_t j = 0; j < head_dim_; ++j)
                row[j] += crow[j];
        }
    }

    // Keys past the last committed slab stay raw until their block
    // completes.
    const std::int64_t tail_base = slabs_new * k1;
    cache.v_tail.assign(
        raw_all.begin() +
            static_cast<std::ptrdiff_t>((tail_base - raw_base) *
                                        d_model_),
        raw_all.end());
    cache.prefix = n;
    return wo_->forward(concat, /*train=*/false);
}

Tensor
MultiHeadAttention::backward(const Tensor& grad_out)
{
    MX_CHECK_ARG(!cache_.empty(),
                 "MultiHeadAttention: backward before forward(train)");
    const std::int64_t batch = cached_batch_;
    const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));

    Tensor d_concat = wo_->backward(grad_out);
    Tensor dq = Tensor::zeros({batch * seq_len_, d_model_});
    Tensor dk = Tensor::zeros({batch * seq_len_, d_model_});
    Tensor dv = Tensor::zeros({batch * seq_len_, d_model_});

    for (std::int64_t b = 0; b < batch; ++b) {
        for (std::int64_t h = 0; h < heads_; ++h) {
            const HeadCache& c =
                cache_[static_cast<std::size_t>(b * heads_ + h)];
            Tensor dctx = slice_head(d_concat, b, h); // [T, dh]

            // dP = dctx V^T: reduction over head_dim.
            Tensor dp = qmatmul_nt(dctx, c.v, spec_.backward,
                                   spec_.rounding);
            // dV = P^T dctx: reduction over queries; transpose first.
            Tensor pt = tensor::transpose2d(c.probs);
            Tensor dctx_t = tensor::transpose2d(dctx);
            Tensor dvh = qmatmul_nt(pt, dctx_t, spec_.backward,
                                    spec_.rounding);

            // Softmax backward: dS = P * (dP - rowsum(dP * P)).
            Tensor ds({seq_len_, seq_len_});
            for (std::int64_t i = 0; i < seq_len_; ++i) {
                double dot = 0;
                for (std::int64_t j = 0; j < seq_len_; ++j)
                    dot += static_cast<double>(
                               dp.data()[i * seq_len_ + j]) *
                           c.probs.data()[i * seq_len_ + j];
                for (std::int64_t j = 0; j < seq_len_; ++j) {
                    double g = (dp.data()[i * seq_len_ + j] - dot) *
                               c.probs.data()[i * seq_len_ + j];
                    ds.data()[i * seq_len_ + j] =
                        static_cast<float>(g * scale);
                }
            }

            // dQ = dS K (reduce over keys); dK = dS^T Q (reduce queries).
            Tensor kt = tensor::transpose2d(c.k);
            Tensor dqh = qmatmul_nt(ds, kt, spec_.backward, spec_.rounding);
            Tensor dst = tensor::transpose2d(ds);
            Tensor qt = tensor::transpose2d(c.q);
            Tensor dkh = qmatmul_nt(dst, qt, spec_.backward,
                                    spec_.rounding);

            scatter_head(dq, dqh, b, h);
            scatter_head(dk, dkh, b, h);
            scatter_head(dv, dvh, b, h);
        }
    }

    Tensor dx = wq_->backward(dq);
    tensor::axpy(dx, 1.0f, wk_->backward(dk));
    tensor::axpy(dx, 1.0f, wv_->backward(dv));
    return dx;
}

void
MultiHeadAttention::collect_params(std::vector<Param*>& out)
{
    wq_->collect_params(out);
    wk_->collect_params(out);
    wv_->collect_params(out);
    wo_->collect_params(out);
}

} // namespace nn
} // namespace mx
