/**
 * @file
 * Build-sanity smoke test.  Two halves:
 *
 *  1. At build time, tests/CMakeLists.txt generates one translation
 *     unit per public header (each including ONLY that header) and
 *     compiles them into the mx_header_sanity object library — so a
 *     header that is not self-contained fails the build, not this
 *     binary.
 *
 *  2. This TU includes EVERY public header at once (catching macro or
 *     ODR collisions between subsystems) and smoke-checks one
 *     representative invariant per subsystem, proving each library
 *     actually linked.
 */

#include <gtest/gtest.h>

#include "bench_report.h"
#include "bench_util.h"
#include "core/bdr_format.h"
#include "core/check.h"
#include "core/delayed_scaler.h"
#include "core/qsnr_harness.h"
#include "core/quantize.h"
#include "core/rounding.h"
#include "core/scalar_fp.h"
#include "core/theory.h"
#include "data/synthetic.h"
#include "formats/block_codec.h"
#include "formats/packed.h"
#include "gemm/gemm_plan.h"
#include "gemm/packed_gemm.h"
#include "gemm/packed_operand.h"
#include "hw/area_model.h"
#include "hw/cost.h"
#include "hw/memory_model.h"
#include "hw/pipeline.h"
#include "models/dlrm_mini.h"
#include "models/lstm_seq2seq.h"
#include "models/mlp.h"
#include "models/resnet_mini.h"
#include "models/trainer.h"
#include "models/transformer.h"
#include "nn/activations.h"
#include "nn/attention.h"
#include "nn/conv2d.h"
#include "nn/embedding.h"
#include "nn/layer.h"
#include "nn/layernorm.h"
#include "nn/linear.h"
#include "nn/losses.h"
#include "nn/lstm.h"
#include "nn/optimizer.h"
#include "nn/quant.h"
#include "nn/sequential.h"
#include "stats/distributions.h"
#include "stats/metrics.h"
#include "stats/rng.h"
#include "sweep/design_space.h"
#include "tensor/tensor.h"

using namespace mx;

TEST(BuildSanity, CoreFormatsValidate)
{
    core::BdrFormat f9 = core::mx9();
    EXPECT_NO_THROW(f9.validate());
    EXPECT_DOUBLE_EQ(f9.bits_per_element(), 9.0);
    EXPECT_DOUBLE_EQ(core::mx6().bits_per_element(), 6.0);
    EXPECT_DOUBLE_EQ(core::mx4().bits_per_element(), 4.0);
}

TEST(BuildSanity, StatsRngIsDeterministic)
{
    stats::Rng a(7), b(7);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.normal(), b.normal());
}

TEST(BuildSanity, FormatsCodecRoundTrips)
{
    stats::Rng rng(3);
    std::vector<float> x(32);
    for (auto& v : x)
        v = static_cast<float>(rng.normal());
    auto packed = formats::pack(core::mx9(), x);
    auto back = formats::unpack(packed);
    ASSERT_EQ(back.size(), x.size());
}

TEST(BuildSanity, TensorAndNnLink)
{
    stats::Rng rng(5);
    tensor::Tensor a = tensor::Tensor::randn({4, 8}, rng);
    tensor::Tensor b = tensor::Tensor::randn({4, 8}, rng);
    auto c = nn::qmatmul_nt(a, b, core::mx9());
    EXPECT_EQ(c.numel(), 16);
}

TEST(BuildSanity, GemmPlansLink)
{
    auto plan = core::kernels::make_quant_plan(core::mx9());
    EXPECT_TRUE(gemm::gemm_compatible(plan, plan));
    EXPECT_EQ(gemm::make_gemm_plan(plan, plan).budget, 2);
}

TEST(BuildSanity, HwCostModelLinks)
{
    hw::CostModel cm;
    auto p = cm.evaluate(core::mx9());
    EXPECT_GT(p.area_memory_product, 0.0);
}

TEST(BuildSanity, DataAndModelsLink)
{
    data::GaussianClusters task(3, 4, 11);
    stats::Rng rng(12);
    auto batch = task.sample(8, rng);
    models::MlpClassifier m(4, {8}, 3, nn::QuantSpec::fp32(), 1);
    tensor::Tensor logits = m.logits(batch.x, false);
    EXPECT_EQ(logits.numel(), 8 * 3);
}

TEST(BuildSanity, SweepEnumerates)
{
    sweep::SweepSpec spec;
    auto formats = sweep::enumerate_formats(spec);
    EXPECT_GT(formats.size(), 100u);
}

TEST(BuildSanity, BenchReportHelpersWork)
{
    auto r = bench::run_bench([] {
        volatile int x = 0;
        for (int i = 0; i < 100; ++i)
            x = x + i;
    }, 100, 0.001);
    EXPECT_GT(r.iterations, 0u);
    EXPECT_GT(r.items_per_sec, 0.0);
}
