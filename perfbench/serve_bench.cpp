/**
 * @file
 * serve_bench: the serving benchmark.  One process runs one workload
 * against a GPT served from an MXFROZEN artifact through
 * serve::InferenceEngine, checks every reply against the model called
 * directly, and prints its metrics.
 *
 *   serve_bench --workload decode|prefill --seed N
 *               --seconds S --trace 0|1 --workdir DIR
 *
 * perfbench/run.py builds this binary, fixes the process set-up
 * (MX_THREADS = nproc - 1, every other MX_* knob unset) and runs it;
 * perfbench/README.md defines every metric.
 *
 * Run shape: the GPT is written to an artifact from a fixed seed
 * before anything is timed; the serving engine is set up once,
 * untimed; then the run is kSlices slices that share the run's
 * --seconds.  Each slice times kSetupsPerSlice set-up probes (a second
 * artifact open -> load_frozen -> engine -> first reply, torn down),
 * then drives traffic.  The set-up probes are spread through the run
 * so a host slowdown hits set-up and traffic alike.  Replies are
 * checked after the timed slices.  The last stdout line is one JSON
 * object; with --trace 1 it carries the per-layer metrics instead of
 * the end-to-end ones.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "artifact/reader.h"
#include "core/bdr_format.h"
#include "core/kernels/dispatch.h"
#include "core/thread_pool.h"
#include "models/mlp.h"
#include "models/serve_adapters.h"
#include "models/transformer.h"
#include "nn/attention.h"
#include "nn/linear.h"
#include "nn/quant.h"
#include "obs/obs.h"
#include "serve/engine.h"
#include "serve/session_cache.h"
#include "stats/rng.h"

using namespace mx;
using Clock = std::chrono::steady_clock;
using tensor::Tensor;

namespace {

// ---------------------------------------------------------------------
// Fixed configuration (the models and the traffic shapes).
// ---------------------------------------------------------------------

constexpr std::uint64_t kGptSeed = 7;
constexpr std::uint64_t kMlpSeed = 71;
constexpr std::int64_t kMlpIn = 256;
constexpr std::int64_t kMlpOut = 64;
const std::vector<std::int64_t> kMlpHidden = {256, 256};

/** Slices per run, and set-up probes per slice. */
constexpr int kSlices = 10;
constexpr int kSetupsPerSlice = 3;

nn::QuantSpec
serve_spec()
{
    return nn::QuantSpec::forward_only(core::mx9());
}

models::TransformerConfig
gpt_config()
{
    models::TransformerConfig cfg;
    cfg.vocab = 256;
    cfg.d_model = 128;
    cfg.heads = 4;
    cfg.layers = 4;
    cfg.seq_len = 128;
    cfg.spec = serve_spec();
    cfg.seed = kGptSeed;
    return cfg;
}

/** A closed-loop token workload: `concurrency` streams stepped in
 *  lockstep by the one generator thread. */
struct StreamShape
{
    int concurrency;
    int prompt_lo, prompt_hi; ///< Prompt tokens, inclusive range.
    int out_lo, out_hi;       ///< Generated tokens, inclusive range.
    bool distinct_prompt_tokens; ///< No token repeats inside a prompt.
    bool session_per_row; ///< Fresh session id for every row.
};

// decode: short prompts, long generations under one session per
// stream, so nearly every row is an m=1 step over a cached prefix.
constexpr StreamShape kDecode{8, 4, 16, 48, 64, false, false};
// prefill: long prompts of distinct tokens, 1-4 outputs, and a fresh
// session per row, so every row recomputes its whole context
// (m ~ 100) and the session cache only inserts and evicts.
constexpr StreamShape kPrefill{4, 80, 120, 1, 4, true, true};

// Probe shapes (per-layer metrics).
constexpr std::int64_t kDecodeMedianPrefix = 38; ///< 10 prompt + 28.
constexpr std::int64_t kPrefillTokens = 100;
constexpr std::size_t kDecodeTiles = 16; ///< ff1 at m=1: 512 cols / 32.

// ---------------------------------------------------------------------
// Small helpers.
// ---------------------------------------------------------------------

double
ms_since(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/** Nearest-rank percentile of @p v (copied, sorted); 0 when empty. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    std::size_t rank =
        static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
    rank = std::clamp<std::size_t>(rank, 1, n);
    return v[rank - 1];
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

/** True when the @p p tail of @p n samples has at least ten beyond it. */
bool
tail_valid(std::size_t n, double p)
{
    return static_cast<double>(n) * (1.0 - p) >= 10.0;
}

std::uint64_t
hash_floats(const float* p, std::size_t n)
{
    std::uint64_t h = 1469598103934665603ULL; // FNV-1a over the bits
    const auto* b = reinterpret_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n * sizeof(float); ++i) {
        h ^= b[i];
        h *= 1099511628211ULL;
    }
    return h;
}

bool
same_bits(const std::vector<float>& a, const std::vector<float>& b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

int
argmax(const float* logits, int n)
{
    int best = 0;
    for (int v = 1; v < n; ++v)
        if (logits[v] > logits[best])
            best = v;
    return best;
}

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // kB on Linux
}

/** Host-wide CPU time in clock ticks, from the first line of
 *  /proc/stat; both 0 where it cannot be read. */
struct CpuTicks
{
    double steal = 0; ///< Time the hypervisor ran another guest.
    double total = 0; ///< Every state; guest time is inside user.
};

CpuTicks
cpu_ticks()
{
    CpuTicks t;
    std::FILE* f = std::fopen("/proc/stat", "r");
    if (f == nullptr)
        return t;
    unsigned long long v[8] = {};
    const int got =
        std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
    std::fclose(f);
    if (got != 8)
        return t;
    for (unsigned long long x : v)
        t.total += static_cast<double>(x);
    t.steal = static_cast<double>(v[7]);
    return t;
}

/** Steal as a share of all CPU time between @p a and @p b. */
double
steal_share(const CpuTicks& a, const CpuTicks& b)
{
    const double dt = b.total - a.total;
    return dt > 0 ? (b.steal - a.steal) / dt : 0.0;
}

/** Slices at or under this steal share count as quiet. */
constexpr double kStealQuiet = 0.01;
/** Steal share of the slices a run's figures come from above which the
 *  run is flagged: slices at 8-10% steal ran about 20% slower. */
constexpr double kStealWarn = 0.02;

const char*
simd_name(core::kernels::SimdLevel l)
{
    switch (l) {
    case core::kernels::SimdLevel::Scalar:
        return "scalar";
    case core::kernels::SimdLevel::Avx2:
        return "avx2";
    case core::kernels::SimdLevel::Avx512:
        return "avx512";
    }
    return "unknown";
}

/** Time @p fn in batches of @p reps calls for about @p budget_s; the
 *  median batch's per-call time in microseconds. */
double
probe_us(const std::function<void()>& fn, int reps, double budget_s = 0.3)
{
    fn(); // warm
    std::vector<double> per_call;
    const auto t_end =
        Clock::now() + std::chrono::duration<double>(budget_s);
    while (per_call.size() < 5 || Clock::now() < t_end) {
        const auto t0 = Clock::now();
        for (int i = 0; i < reps; ++i)
            fn();
        per_call.push_back(ms_since(t0, Clock::now()) * 1e3 / reps);
    }
    return median(per_call);
}

// ---------------------------------------------------------------------
// Metric output.
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
json_metrics(const std::vector<Metric>& ms)
{
    std::string s = "{";
    char buf[64];
    for (std::size_t i = 0; i < ms.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%.17g", ms[i].value);
        s += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + ms[i].unit + "\"}";
    }
    return s + "}";
}

// ---------------------------------------------------------------------
// The served model: artifact open -> load_frozen -> engine.
// ---------------------------------------------------------------------

/** Per-layer timing taken by the benchmark's wrapper around the batch
 *  function (installed only in --trace 1 runs). */
struct BatchFnTimes
{
    std::mutex mu;
    std::set<std::uint64_t> seen_sessions;
    double first_ms = 0;      ///< Rows opening a session (prefill).
    double first_tokens = 0;  ///< Context tokens of those rows.
    double step_ms = 0;       ///< Rows on a known session (decode).
    double step_rows = 0;
    /// Every call: [start, end) and rows.  A single replica executes
    /// one batch at a time, so the calls whose spans overlap are the
    /// row shards of one batch.
    struct Call
    {
        Clock::time_point start, end;
        double rows;
    };
    std::vector<Call> calls;

    /** Mean over rows of the wall time their batch spent inside the
     *  batch function (first shard start to last shard end). */
    double
    in_batch_fn_ms_per_row()
    {
        std::sort(calls.begin(), calls.end(),
                  [](const Call& a, const Call& b) {
                      return a.start < b.start;
                  });
        double weighted = 0, rows = 0;
        for (std::size_t i = 0; i < calls.size();) {
            Clock::time_point end = calls[i].end;
            double batch_rows = 0;
            const Clock::time_point start = calls[i].start;
            for (; i < calls.size() && calls[i].start < end; ++i) {
                end = std::max(end, calls[i].end);
                batch_rows += calls[i].rows;
            }
            weighted += ms_since(start, end) * batch_rows;
            rows += batch_rows;
        }
        return rows > 0 ? weighted / rows : 0;
    }
};

struct SetupTimes
{
    double open_ms = 0, load_ms = 0, engine_ms = 0, first_reply_ms = 0;
    double total_s() const
    {
        return (open_ms + load_ms + engine_ms + first_reply_ms) * 1e-3;
    }
};

/** The served GPT.  Members are declared so the engine is destroyed
 *  first: it holds references to the model and the session cache. */
struct Served
{
    std::unique_ptr<artifact::ArtifactReader> reader;
    std::unique_ptr<models::GptMini> gpt;
    std::unique_ptr<serve::SessionCache> sessions;
    std::unique_ptr<serve::InferenceEngine> engine;
};

/** The fixed first request a set-up is timed to. */
std::vector<float>
first_request()
{
    return models::GptMini::pack_decode_row({1, 2, 3, 4, 5, 6, 7, 8},
                                            gpt_config().seq_len);
}

/**
 * Open @p path, load the GPT, build its engine and take the first
 * reply, timing each step.  With @p times the batch function runs
 * inside the benchmark's timing wrapper.
 */
std::unique_ptr<Served>
set_up(const std::string& path, BatchFnTimes* times, SetupTimes& st,
       std::vector<float>& first_reply)
{
    auto s = std::make_unique<Served>();
    auto t0 = Clock::now();
    s->reader = std::make_unique<artifact::ArtifactReader>(path);
    auto t1 = Clock::now();
    st.open_ms = ms_since(t0, t1);
    s->gpt = std::make_unique<models::GptMini>(
        models::GptMini::load_frozen(*s->reader));
    auto t2 = Clock::now();
    st.load_ms = ms_since(t1, t2);

    serve::EngineConfig ec;
    ec.replicas = 1;
    // Frozen mx eval forwards are row-independent, so a batch of more
    // than one row shards by rows across the pool lanes (the engine's
    // documented setting for frozen models) and the GEMMs inside a lane
    // run inline.  A one-row batch runs on the engine worker, where each
    // GEMM fans out across the pool.
    ec.rows_independent = true;
    s->sessions = std::make_unique<serve::SessionCache>();
    serve::InferenceEngine::SessionBatchFn fn =
        models::gpt_decode_batch_fn(*s->gpt, *s->sessions);
    if (times != nullptr) {
        // Row by row, as gpt_decode_batch_fn itself walks a batch, so
        // each row's time is known and classed by whether it opens its
        // session (a prefill) or continues one.
        const std::int64_t seq_len = s->gpt->config().seq_len;
        fn = [inner = std::move(fn), times,
              seq_len](const Tensor& in,
                       const std::vector<std::uint64_t>& sess) {
            const std::int64_t rows = in.dim(0);
            const auto call_start = Clock::now();
            Tensor out;
            for (std::int64_t r = 0; r < rows; ++r) {
                Tensor row({1, seq_len});
                std::copy(in.data() + r * seq_len,
                          in.data() + (r + 1) * seq_len, row.data());
                const std::uint64_t id = sess[static_cast<std::size_t>(r)];
                const auto a = Clock::now();
                Tensor o = inner(row, {id});
                const double ms = ms_since(a, Clock::now());
                if (r == 0)
                    out = Tensor({rows, o.dim(1)});
                std::copy(o.data(), o.data() + o.dim(1),
                          out.data() + r * o.dim(1));
                const double tokens = static_cast<double>(
                    models::GptMini::unpack_decode_row(row.data(), seq_len)
                        .size());
                std::lock_guard<std::mutex> lk(times->mu);
                if (times->seen_sessions.insert(id).second) {
                    times->first_ms += ms;
                    times->first_tokens += tokens;
                } else {
                    times->step_ms += ms;
                    times->step_rows += 1;
                }
            }
            std::lock_guard<std::mutex> lk(times->mu);
            times->calls.push_back(
                {call_start, Clock::now(), static_cast<double>(rows)});
            return out;
        };
    }
    s->engine = std::make_unique<serve::InferenceEngine>(
        std::move(fn), s->gpt->config().seq_len, ec);
    auto t3 = Clock::now();
    st.engine_ms = ms_since(t2, t3);
    first_reply = s->engine->submit(first_request()).get().output;
    st.first_reply_ms = ms_since(t3, Clock::now());
    return s;
}

// ---------------------------------------------------------------------
// Workload state and results.
// ---------------------------------------------------------------------

/** One stream's record for the output check. */
struct StreamLog
{
    std::vector<int> tokens;    ///< Prompt, then every generated token.
    std::size_t prompt_len = 0;
    std::vector<std::uint64_t> logits_hash; ///< One per reply.
};

/** One traffic slice's figures. */
struct Slice
{
    double tokens = 0, seconds = 0; ///< Generated tokens, wall time.
    std::vector<double> ttft_ms, itl_ms; ///< Replies seen in the slice.
    double steal = 0;                    ///< Host steal share.
    bool traced = false;
    std::vector<SetupTimes> setups; ///< Set-up probes before the traffic.
};

struct Results
{
    std::uint64_t attempted = 0; ///< Engine requests sent.
    std::uint64_t failed = 0;    ///< Exceptions plus check mismatches.
    double tokens = 0;           ///< Generated tokens.

    std::vector<Slice> slices;
    std::vector<StreamLog> logs;
};

// ---------------------------------------------------------------------
// decode / prefill: closed loop, lockstep streams.
// ---------------------------------------------------------------------

struct LiveStream
{
    std::size_t log = 0;
    int out_len = 0;
    int generated = 0;
    std::uint64_t session = 0;
    Clock::time_point first_submit, last_reply;
    bool skip_gap = false; ///< Next gap spans a set-up pause.
};

class TokenTraffic
{
  public:
    TokenTraffic(const StreamShape& shape, std::uint64_t seed,
                 serve::InferenceEngine& engine, Results& res)
        : shape_(shape), rng_(seed ^ 0x5bd1e995ULL), engine_(engine),
          res_(res)
    {
        for (int i = 0; i < shape_.concurrency; ++i)
            live_.push_back(start_stream());
    }

    /** Step the streams until @p seconds have passed, recording the
     *  slice's latencies and generated tokens per second in @p out. */
    void
    run(double seconds, Slice& out)
    {
        const double tokens0 = res_.tokens;
        const int vocab = gpt_config().vocab;
        const std::int64_t seq_len = gpt_config().seq_len;
        const auto t0 = Clock::now();
        const auto deadline =
            t0 + std::chrono::duration<double>(seconds);
        std::vector<std::future<serve::Reply>> futs(live_.size());
        while (Clock::now() < deadline) {
            for (std::size_t i = 0; i < live_.size(); ++i) {
                LiveStream& s = live_[i];
                const std::uint64_t id =
                    shape_.session_per_row ? next_session_++ : s.session;
                const auto now = Clock::now();
                if (s.generated == 0)
                    s.first_submit = now;
                ++res_.attempted;
                try {
                    futs[i] = engine_.submit(
                        models::GptMini::pack_decode_row(
                            res_.logs[s.log].tokens, seq_len),
                        id);
                } catch (const std::exception& e) {
                    std::fprintf(stderr, "submit failed: %s\n", e.what());
                    futs[i] = {};
                }
            }
            for (std::size_t i = 0; i < live_.size(); ++i) {
                LiveStream& s = live_[i];
                serve::Reply reply;
                try {
                    if (!futs[i].valid())
                        throw std::runtime_error("not submitted");
                    reply = futs[i].get();
                } catch (const std::exception& e) {
                    std::fprintf(stderr, "request failed: %s\n", e.what());
                    ++res_.failed;
                    live_[i] = start_stream();
                    continue;
                }
                const auto now = Clock::now();
                if (s.generated == 0)
                    out.ttft_ms.push_back(ms_since(s.first_submit, now));
                else if (!s.skip_gap)
                    out.itl_ms.push_back(ms_since(s.last_reply, now));
                s.skip_gap = false;
                s.last_reply = now;
                StreamLog& log = res_.logs[s.log];
                log.logits_hash.push_back(
                    hash_floats(reply.output.data(), reply.output.size()));
                log.tokens.push_back(argmax(reply.output.data(), vocab));
                res_.tokens += 1;
                if (++s.generated == s.out_len)
                    live_[i] = start_stream();
            }
        }
        for (LiveStream& s : live_)
            s.skip_gap = true;
        out.tokens = res_.tokens - tokens0;
        out.seconds = ms_since(t0, Clock::now()) * 1e-3;
    }

  private:
    LiveStream
    start_stream()
    {
        const int vocab = gpt_config().vocab;
        StreamLog log;
        const int len = static_cast<int>(
            rng_.uniform_int(shape_.prompt_lo, shape_.prompt_hi));
        if (shape_.distinct_prompt_tokens) {
            std::vector<int> all(static_cast<std::size_t>(vocab));
            std::iota(all.begin(), all.end(), 0);
            for (int i = 0; i < len; ++i) {
                const std::size_t j =
                    static_cast<std::size_t>(i) +
                    rng_.uniform_u64(all.size() - static_cast<std::size_t>(i));
                std::swap(all[static_cast<std::size_t>(i)], all[j]);
                log.tokens.push_back(all[static_cast<std::size_t>(i)]);
            }
        } else {
            for (int i = 0; i < len; ++i)
                log.tokens.push_back(static_cast<int>(
                    rng_.uniform_u64(static_cast<std::uint64_t>(vocab))));
        }
        log.prompt_len = log.tokens.size();
        res_.logs.push_back(std::move(log));
        LiveStream s;
        s.log = res_.logs.size() - 1;
        s.out_len =
            static_cast<int>(rng_.uniform_int(shape_.out_lo, shape_.out_hi));
        s.session = next_session_++;
        return s;
    }

    StreamShape shape_;
    stats::Rng rng_;
    serve::InferenceEngine& engine_;
    Results& res_;
    std::vector<LiveStream> live_;
    std::uint64_t next_session_ = 1;
};

// ---------------------------------------------------------------------
// Output checks (after the timed slices).
// ---------------------------------------------------------------------

/**
 * Replay every logged stream on the model that wrote the artifact,
 * called directly: each reply against GptMini::decode_logits with the
 * stream's own session (no engine, batcher or session cache), and a
 * longer stream's last reply also against decode_logits with no
 * session, the cold path every warm step is bit-identical to.  A reply
 * whose logits or greedy token differ counts as failed.  Streams run
 * in parallel.
 */
std::uint64_t
check_streams(models::GptMini& ref, const std::vector<StreamLog>& logs)
{
    const int vocab = ref.config().vocab;
    std::vector<std::uint64_t> bad(logs.size(), 0);
    core::ThreadPool::shared().parallel_for(logs.size(), [&](std::size_t i) {
        const StreamLog& log = logs[i];
        models::GptDecodeSession session;
        for (std::size_t j = 0; j < log.logits_hash.size(); ++j) {
            const std::vector<int> ctx(
                log.tokens.begin(),
                log.tokens.begin() +
                    static_cast<std::ptrdiff_t>(log.prompt_len + j));
            const int next = log.tokens[ctx.size()];
            auto differs = [&](const Tensor& logits) {
                return hash_floats(logits.data(),
                                   static_cast<std::size_t>(vocab)) !=
                           log.logits_hash[j] ||
                       argmax(logits.data(), vocab) != next;
            };
            bool wrong = differs(ref.decode_logits(ctx, &session));
            // The first reply already started from an empty session,
            // which recomputes every position like the cold path.
            if (j > 0 && j + 1 == log.logits_hash.size())
                wrong = wrong || differs(ref.decode_logits(ctx));
            bad[i] += wrong ? 1 : 0;
        }
    });
    return std::accumulate(bad.begin(), bad.end(), std::uint64_t{0});
}

// ---------------------------------------------------------------------
// Per-layer probes (--trace 1): timed around public calls.
// ---------------------------------------------------------------------

struct LinearSet
{
    std::vector<std::unique_ptr<nn::Linear>> layers;
    double macs_per_row = 0;
    double bytes_fixed = 0;   ///< Packed weight bytes.
    double bytes_per_row = 0; ///< Packed activations in + FP32 out.
};

LinearSet
frozen_linears(const std::vector<std::pair<std::int64_t, std::int64_t>>& io,
               stats::Rng& rng)
{
    const double bits = 9.0; // MX9 element cost, scales included
    LinearSet s;
    for (auto [in, out] : io) {
        auto l = std::make_unique<nn::Linear>(in, out, serve_spec(), rng);
        l->freeze();
        s.macs_per_row += static_cast<double>(in * out);
        s.bytes_fixed += static_cast<double>(in * out) * bits / 8.0;
        s.bytes_per_row +=
            static_cast<double>(in) * bits / 8.0 + 4.0 * out;
        s.layers.push_back(std::move(l));
    }
    return s;
}

Tensor
gaussian(std::int64_t rows, std::int64_t cols, stats::Rng& rng)
{
    Tensor t({rows, cols});
    for (std::int64_t i = 0; i < rows * cols; ++i)
        t.data()[i] = static_cast<float>(rng.normal());
    return t;
}

double
linear_set_us(LinearSet& s, std::int64_t m, stats::Rng& rng)
{
    std::vector<Tensor> xs;
    for (auto& l : s.layers)
        xs.push_back(gaussian(m, l->in_features(), rng));
    return probe_us(
        [&] {
            for (std::size_t i = 0; i < s.layers.size(); ++i)
                s.layers[i]->forward(xs[i], false);
        },
        m == 1 ? 200 : 10);
}

/**
 * Run @p probe on a pool lane and return its result.  Inside a lane
 * every nested parallel_for runs inline, as the GEMMs of a served batch
 * of more than one row do inside their row shard.
 */
double
in_lane(const std::function<double()>& probe)
{
    double r = 0;
    core::ThreadPool::shared().parallel_for(2, [&](std::size_t i) {
        if (i == 0)
            r = probe();
    });
    return r;
}

/** MlpClassifier::logits on one request row, called directly. */
double
mlp_row_us()
{
    stats::Rng rng(54321);
    models::MlpClassifier mlp(kMlpIn, kMlpHidden, kMlpOut, serve_spec(),
                              kMlpSeed);
    mlp.freeze();
    const Tensor row = gaussian(1, kMlpIn, rng);
    return probe_us([&] { mlp.logits(row, false); }, 200);
}

/**
 * The layer probes.  The GPT's attention, GEMM and quantize probes run
 * inside a pool lane, the path of a served batch of more than one row;
 * gemm.decode_fanout_us repeats the m=1 GEMMs from the top level, the
 * path of a one-row batch, which runs on the engine worker and fans
 * every GEMM out across the pool.  The MLP probes time one request row
 * from the top level, as a one-row batch would run.
 */
void
probe_layers(std::vector<Metric>& out)
{
    stats::Rng rng(12345);
    const models::TransformerConfig cfg = gpt_config();
    const std::int64_t d = cfg.d_model;

    // Attention over a cached prefix: one appended token at decode's
    // median prefix, and a prefill-length suffix into an empty cache.
    nn::MultiHeadAttention attn(d, cfg.heads, cfg.seq_len, true,
                                serve_spec(), rng);
    attn.freeze();
    nn::AttnPrefixCache base;
    attn.forward_suffix(gaussian(kDecodeMedianPrefix, d, rng), base);
    const Tensor one = gaussian(1, d, rng);
    out.push_back({"nn.attn_suffix_us", in_lane([&] {
                       const int reps = 50;
                       std::vector<nn::AttnPrefixCache> caches;
                       std::vector<double> per_call;
                       for (int b = 0; b < 15; ++b) {
                           caches.assign(reps, base);
                           const auto t0 = Clock::now();
                           for (auto& c : caches)
                               attn.forward_suffix(one, c);
                           per_call.push_back(ms_since(t0, Clock::now()) *
                                              1e3 / reps);
                       }
                       return median(per_call);
                   }),
                   "us"});
    const Tensor prompt = gaussian(kPrefillTokens, d, rng);
    out.push_back({"nn.attn_prefill_us", in_lane([&] {
                       return probe_us(
                           [&] {
                               nn::AttnPrefixCache c;
                               attn.forward_suffix(prompt, c);
                           },
                           5);
                   }),
                   "us"});

    // One transformer block's frozen Linears (wq, wk, wv, wo, ff1,
    // ff2) at decode's m=1 and prefill's m, and the MLP's Linears at
    // one request row.
    LinearSet block =
        frozen_linears({{d, d}, {d, d}, {d, d}, {d, d}, {d, 4 * d},
                        {4 * d, d}},
                       rng);
    const double dec_us =
        in_lane([&] { return linear_set_us(block, 1, rng); });
    const double pre_us =
        in_lane([&] { return linear_set_us(block, kPrefillTokens, rng); });
    out.push_back({"gemm.decode_us", dec_us, "us"});
    out.push_back({"gemm.decode_gmacs", block.macs_per_row / dec_us * 1e-3,
                   "GMAC/s"});
    out.push_back(
        {"gemm.decode_fanout_us", linear_set_us(block, 1, rng), "us"});
    out.push_back({"gemm.prefill_us", pre_us, "us"});
    out.push_back({"gemm.prefill_gmacs",
                   block.macs_per_row * kPrefillTokens / pre_us * 1e-3,
                   "GMAC/s"});
    LinearSet mlp = frozen_linears(
        {{kMlpIn, 256}, {256, 256}, {256, kMlpOut}}, rng);
    out.push_back({"gemm.mlp_us", linear_set_us(mlp, 1, rng), "us"});
    out.push_back({"gemm.bytes_per_mac",
                   (block.bytes_fixed + block.bytes_per_row) /
                       block.macs_per_row,
                   "B/MAC"});

    const Tensor acts = gaussian(kPrefillTokens, d, rng);
    const double q_us = in_lane([&] {
        return probe_us([&] { nn::quantize_rows(acts, core::mx9()); }, 20);
    });
    out.push_back({"kernels.quantize_ns_per_elem",
                   q_us * 1e3 / static_cast<double>(kPrefillTokens * d),
                   "ns"});
    out.push_back({"pool.fanout_us", probe_us([] {
                       core::ThreadPool::shared().parallel_for(
                           kDecodeTiles, [](std::size_t) {});
                   }, 200),
                   "us"});
}

// ---------------------------------------------------------------------
// main
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    std::string workdir;
};

bool
parse(int argc, char** argv, Options& o)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            o.workload = v;
        else if (k == "--seed")
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            o.seconds = std::atof(v.c_str());
        else if (k == "--trace")
            o.trace = v == "1";
        else if (k == "--workdir")
            o.workdir = v;
        else
            return false;
    }
    return (o.workload == "decode" || o.workload == "prefill") &&
           o.seconds > 0 && !o.workdir.empty() && argc % 2 == 1;
}

} // namespace

int
main(int argc, char** argv)
{
    Options opt;
    if (!parse(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: serve_bench --workload decode|prefill "
                     "--seed N --seconds S --trace 0|1 --workdir DIR\n");
        return 2;
    }
    const bool decode = opt.workload == "decode";
    const char* mx_threads = std::getenv("MX_THREADS");
    std::printf("host: nproc=%u MX_THREADS=%s pool_lanes=%zu simd=%s "
                "build=%s workload=%s seed=%llu seconds=%g trace=%d\n",
                std::thread::hardware_concurrency(),
                mx_threads ? mx_threads : "unset",
                core::ThreadPool::shared().thread_count(),
                simd_name(core::kernels::active_simd_level()),
                PERFBENCH_BUILD_TYPE, opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);

    // The GPT from a fixed seed, written before anything is timed; the
    // in-memory model stays as the reference the replies are checked
    // against.
    std::filesystem::create_directories(opt.workdir);
    const std::string path = opt.workdir + "/gpt.mxfrozen";
    models::GptMini gpt_ref(gpt_config());
    gpt_ref.freeze();
    gpt_ref.save_frozen(path);
    const std::vector<float> direct_first = [&] {
        const std::vector<float> row = first_request();
        const Tensor o = gpt_ref.decode_logits(
            models::GptMini::unpack_decode_row(row.data(),
                                               gpt_config().seq_len));
        return std::vector<float>(o.data(), o.data() + o.numel());
    }();

    Results res;
    BatchFnTimes times;
    SetupTimes main_setup;
    std::vector<float> reply;
    std::unique_ptr<Served> served =
        set_up(path, opt.trace ? &times : nullptr, main_setup, reply);
    ++res.attempted;
    if (!same_bits(reply, direct_first))
        ++res.failed;
    TokenTraffic traffic(decode ? kDecode : kPrefill, opt.seed,
                         *served->engine, res);

    obs::Counter& gemm_calls = obs::counter("gemm.calls");
    obs::Counter& attn_tokens = obs::counter("attn.append.tokens");
    std::uint64_t gemm_delta = 0, attn_delta = 0;
    const double slice_s = opt.seconds / kSlices;
    const CpuTicks run_ticks = cpu_ticks();
    for (int k = 0; k < kSlices; ++k) {
        Slice& slice = res.slices.emplace_back();
        const CpuTicks slice_ticks = cpu_ticks();
        for (int i = 0; i < kSetupsPerSlice; ++i) {
            SetupTimes st;
            std::vector<float> first;
            set_up(path, nullptr, st, first);
            slice.setups.push_back(st);
            ++res.attempted;
            if (!same_bits(first, direct_first))
                ++res.failed;
        }

        // The traced run alternates untraced and traced slices; the
        // difference is the span overhead.
        const bool traced = opt.trace && k % 2 == 1;
        obs::set_trace_enabled(traced);
        const std::uint64_t g0 = gemm_calls.value();
        const std::uint64_t a0 = attn_tokens.value();
        slice.traced = traced;
        traffic.run(slice_s, slice);
        slice.steal = steal_share(slice_ticks, cpu_ticks());
        gemm_delta += gemm_calls.value() - g0;
        attn_delta += attn_tokens.value() - a0;
    }
    const double run_steal = steal_share(run_ticks, cpu_ticks());
    obs::set_trace_enabled(false);
    served->engine->drain();
    const serve::EngineStats es = served->engine->stats();
    const serve::SessionCache::Stats ss = served->sessions->stats();

    // Hypervisor steal: time the host ran another guest while this one
    // was ready, measured over each slice's set-ups and traffic.  The
    // gated figures come from the quiet slices, or from
    // the half of the slices with the least steal when fewer than half
    // are quiet, so a steal burst that covers part of a run does not
    // set them; a run whose chosen slices still carry more than
    // kStealWarn is flagged, because its timings read slower than the
    // code is.
    std::vector<const Slice*> quiet;
    for (const Slice& sl : res.slices)
        quiet.push_back(&sl);
    std::stable_sort(quiet.begin(), quiet.end(),
                     [](const Slice* a, const Slice* b) {
                         return a->steal < b->steal;
                     });
    std::size_t used = quiet.size() / 2;
    while (used < quiet.size() && quiet[used]->steal <= kStealQuiet)
        ++used;
    quiet.resize(used);
    double quiet_steal = 0, tokens = 0, seconds = 0;
    std::vector<double> ttft_ms, itl_ms, setup_s, open_ms, load_ms;
    for (const Slice* sl : quiet) {
        for (const SetupTimes& st : sl->setups) {
            setup_s.push_back(st.total_s());
            open_ms.push_back(st.open_ms);
            load_ms.push_back(st.load_ms);
        }
        quiet_steal += sl->steal / static_cast<double>(quiet.size());
        tokens += sl->tokens;
        seconds += sl->seconds;
        ttft_ms.insert(ttft_ms.end(), sl->ttft_ms.begin(), sl->ttft_ms.end());
        itl_ms.insert(itl_ms.end(), sl->itl_ms.begin(), sl->itl_ms.end());
    }
    std::printf("host: steal=%.2f%% of CPU time over the timed set-ups and "
                "slices, %.2f%% over the slices used%s\n",
                run_steal * 100, quiet_steal * 100,
                quiet_steal > kStealWarn
                    ? "  HIGH STEAL: timings of this run are unreliable"
                    : "");
    std::printf("slices (tokens/s, steal %%, * = used):");
    for (const Slice& sl : res.slices)
        std::printf(" %.1f(%.1f)%s", sl.tokens / sl.seconds, sl.steal * 100,
                    std::find(quiet.begin(), quiet.end(), &sl) != quiet.end()
                        ? "*"
                        : "");
    std::printf("\n");

    const auto check_t0 = Clock::now();
    res.failed += check_streams(gpt_ref, res.logs);
    std::printf("check: %.2f s after the timed slices\n",
                ms_since(check_t0, Clock::now()) * 1e-3);

    // ---- end-to-end metrics -------------------------------------------
    std::printf("requests: sent=%llu succeeded=%llu failed=%llu\n",
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.attempted - res.failed),
                static_cast<unsigned long long>(res.failed));
    // A one-row batch runs on the engine worker and fans each GEMM out
    // across the pool; a larger one runs its GEMMs inline per row shard.
    const double one_row_share =
        es.batches > 0 && es.batch_size_hist.size() > 1
            ? static_cast<double>(es.batch_size_hist[1]) /
                  static_cast<double>(es.batches)
            : 0.0;
    std::printf("batches: %llu, mean rows %.2f, one-row share %.3f\n",
                static_cast<unsigned long long>(es.batches),
                es.mean_batch_rows(), one_row_share);
    // Each line states the samples it rests on.  Gated metrics also go
    // into the result line; tails are reported only, because their
    // run-to-run spread is wider than any bound the benchmark can hold.
    std::vector<Metric> e2e;
    auto line = [](const char* name, double v, const char* unit,
                   std::size_t n, const char* note) {
        std::printf("  %-16s %12.4f %-4s n=%-8zu %s\n", name, v, unit, n,
                    note);
    };
    auto gated = [&](const char* name, double v, const char* unit,
                     std::size_t n, const char* note) {
        line(name, v, unit, n, note);
        e2e.push_back({name, v, unit});
    };
    auto tail = [&](const char* name, const std::vector<double>& v,
                    double p) {
        line(name, percentile(v, p), "ms", v.size(),
             tail_valid(v.size(), p)
                 ? "reported only"
                 : "reported only; INVALID, <10 samples beyond");
    };
    gated("tokens_per_s", tokens / seconds, "1/s", quiet.size(),
          "over the slices used");
    gated("ttft_p50_ms", percentile(ttft_ms, 0.5), "ms", ttft_ms.size(), "");
    tail("ttft_p90_ms", ttft_ms, 0.9);
    // On prefill every row recomputes its whole context, so the gap
    // between replies repeats ttft; it is printed because every run
    // prints every gated metric.
    gated("itl_p50_ms", percentile(itl_ms, 0.5), "ms", itl_ms.size(),
          decode ? "" : "tracks ttft_p50_ms on prefill");
    tail("itl_p99_ms", itl_ms, 0.99);
    gated("setup_s", median(setup_s), "s", setup_s.size(), "median");
    gated("peak_rss_mb", peak_rss_mb(), "MB", 1, "");

    std::vector<Metric> layers;
    if (opt.trace) {
        layers.push_back({"serve.queue_wait_p50_ms", es.queue_wait.p50_ms,
                          "ms"});
        layers.push_back({"serve.queue_wait_p99_ms", es.queue_wait.p99_ms,
                          "ms"});
        layers.push_back({"serve.batch_execute_p50_ms",
                          es.batch_execute.p50_ms, "ms"});
        layers.push_back({"serve.mean_batch_rows", es.mean_batch_rows(),
                          "rows"});
        layers.push_back(
            {"serve.one_row_batch_share", one_row_share, "ratio"});
        const double in_fn_ms = times.in_batch_fn_ms_per_row();
        layers.push_back({"serve.overhead_us",
                          (es.request_total.mean_ms -
                           es.queue_wait.mean_ms - in_fn_ms) * 1e3,
                          "us"});
        const double lookups = static_cast<double>(ss.hits + ss.misses);
        layers.push_back({"session.hit_ratio",
                          lookups > 0 ? ss.hits / lookups : 0, "ratio"});
        layers.push_back({"session.evictions",
                          static_cast<double>(ss.evictions), "count"});
        layers.push_back({"session.resident_bytes",
                          static_cast<double>(ss.resident_bytes), "bytes"});
        layers.push_back({"models.decode_row_ms",
                          times.step_rows > 0
                              ? times.step_ms / times.step_rows
                              : 0,
                          "ms"});
        layers.push_back({"models.prefill_us_per_token",
                          times.first_tokens > 0
                              ? times.first_ms * 1e3 / times.first_tokens
                              : 0,
                          "us"});
        layers.push_back({"models.mlp_us_per_row", mlp_row_us(), "us"});
        layers.push_back({"gemm.calls_per_token",
                          static_cast<double>(gemm_delta) / res.tokens,
                          "count"});
        layers.push_back({"nn.attn_tokens_per_token",
                          static_cast<double>(attn_delta) / res.tokens,
                          "count"});
        probe_layers(layers);
        layers.push_back({"artifact.open_ms", median(open_ms), "ms"});
        layers.push_back({"artifact.load_ms", median(load_ms), "ms"});
        // tokens_per_s over the traced and the untraced slices.
        auto half = [&](bool traced) {
            double tok = 0, sec = 0;
            for (const Slice& sl : res.slices)
                if (sl.traced == traced) {
                    tok += sl.tokens;
                    sec += sl.seconds;
                }
            return tok / sec;
        };
        const double off = half(false);
        layers.push_back({"obs.trace_overhead_pct",
                          (off - half(true)) / off * 100, "%"});
        layers.push_back(
            {"obs.spans_dropped",
             static_cast<double>(obs::counter("obs.spans_dropped").value()),
             "count"});
        std::printf("per-layer (0 = layer not exercised by this "
                    "workload; gemm.bytes_per_mac is computed from "
                    "tensor sizes):\n");
        for (const Metric& m : layers)
            std::printf("  %-30s %14.4f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                res.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed),
                json_metrics(opt.trace ? layers : e2e).c_str());
    return 0;
}
