/**
 * @file
 * Tests for the packed format codecs: bit-level roundtrip, agreement with
 * fake quantization, and exact storage accounting.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <memory>

#include "core/check.h"

#include <cmath>

#include "core/kernels/quant_kernel.h"
#include "formats/block_codec.h"
#include "formats/packed.h"
#include "stats/rng.h"

using namespace mx;
using namespace mx::core;
using namespace mx::formats;

TEST(BitStream, WriteReadRoundTrip)
{
    BitWriter w;
    w.write(0b101, 3);
    w.write(0xabcd, 16);
    w.write(1, 1);
    w.write(0x123456789abcdef0ull, 64);
    EXPECT_EQ(w.bit_count(), 84u);

    auto bytes = w.bytes();
    BitReader r(bytes);
    EXPECT_EQ(r.read(3), 0b101u);
    EXPECT_EQ(r.read(16), 0xabcdu);
    EXPECT_EQ(r.read(1), 1u);
    EXPECT_EQ(r.read(64), 0x123456789abcdef0ull);
}

TEST(BitStream, ReaderThrowsPastEnd)
{
    BitWriter w;
    w.write(0xff, 8);
    auto bytes = w.bytes();
    BitReader r(bytes);
    r.read(8);
    EXPECT_THROW(r.read(1), ArgumentError);
}

TEST(BitStream, AppendsToExistingBytesAndAligns)
{
    BitWriter w(std::vector<std::uint8_t>{0xaa});
    w.write(0b101, 3);
    w.align();
    w.align(); // closing an already-closed byte is a no-op
    w.write(0x3, 2);
    EXPECT_EQ(w.bytes(), (std::vector<std::uint8_t>{0xaa, 0x05, 0x03}));
    EXPECT_EQ(w.bit_count(), 18u);
}

namespace {

/** One block read the bit-serial way: one BitReader call per field, in
 *  write_block_bits order. */
int
serial_block(const kernels::QuantPlan& plan, BitReader& r, std::size_t n_sub,
             std::uint8_t* taus, std::int32_t* mant, std::size_t n)
{
    const int e = static_cast<int>(r.read(plan.d1)) - plan.e_max;
    for (std::size_t s = 0; s < n_sub; ++s)
        taus[s] = static_cast<std::uint8_t>(r.read(plan.d2));
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t code = r.read(1 + plan.m);
        const auto mag = static_cast<std::int32_t>(code >> 1);
        mant[i] = (code & 1) != 0 ? -mag : mag;
    }
    return e;
}

} // namespace

// read_block_bits against a bit-serial BitReader walk over random bytes:
// every block's exponent, sub-shifts and mantissas, and where the stream
// position ends.  Rows are laid out both bit-contiguous (formats::pack,
// PackedOperand::decode) and byte-aligned (decode_rows), in a heap
// buffer exactly as long as the stream, so the last row ends on the
// buffer's final byte and an over-reading window trips ASan.
TEST(BlockReader, MatchesBitSerialWalkOnRandomStreams)
{
    const BdrFormat formats[] = {
        mx9(), mx6(), mx4(), msfp16(),
        bfp_custom(5, 8, 32),         // plain BFP, d2 = 0
        mx_custom(7, 11, 16, 1, 2),   // d1 = 11
        mx_custom(3, 8, 64, 2, 2),    // 8 + 32 x 2 = 72-bit header
    };
    stats::Rng rng(404);
    for (const BdrFormat& fmt : formats) {
        const kernels::QuantPlan plan = kernels::make_quant_plan(fmt);
        const std::size_t k1 = static_cast<std::size_t>(plan.k1);
        for (std::size_t cols : {std::size_t{1}, std::size_t{5}, k1 - 1, k1,
                                 k1 + 1, 2 * k1 + 3, 3 * k1}) {
            const std::size_t row_bits = packed_bits(fmt, cols);
            for (bool aligned : {false, true}) {
                const std::size_t rows = 3;
                const std::size_t stride =
                    aligned ? 8 * ((row_bits + 7) / 8) : row_bits;
                const std::size_t size =
                    ((rows - 1) * stride + row_bits + 7) / 8;
                auto buf = std::make_unique<std::uint8_t[]>(size);
                for (std::size_t b = 0; b < size; ++b)
                    buf[b] = static_cast<std::uint8_t>(rng.next_u64());
                BitReader serial(std::span<const std::uint8_t>(buf.get(),
                                                               size));
                std::vector<std::uint8_t> tau_a(k1), tau_b(k1);
                std::vector<std::int32_t> mant_a(k1), mant_b(k1);
                for (std::size_t r = 0; r < rows; ++r) {
                    std::size_t pos = r * stride;
                    while (serial.bit_position() < pos)
                        serial.read(static_cast<int>(std::min<std::size_t>(
                            pos - serial.bit_position(), 64)));
                    for (std::size_t off = 0; off < cols; off += k1) {
                        const std::size_t n = std::min(k1, cols - off);
                        const std::size_t n_sub = plan.num_sub_blocks(n);
                        const int ea = kernels::detail::read_block_bits(
                            plan, buf.get(), size, pos, tau_a.data(), n_sub,
                            mant_a.data(), n);
                        const int eb = serial_block(plan, serial, n_sub,
                                                    tau_b.data(),
                                                    mant_b.data(), n);
                        const std::string where =
                            fmt.name + " cols " + std::to_string(cols) +
                            (aligned ? " aligned" : " contiguous") +
                            " row " + std::to_string(r) + " block " +
                            std::to_string(off / k1);
                        ASSERT_EQ(ea, eb) << where;
                        ASSERT_TRUE(std::equal(tau_a.begin(),
                                               tau_a.begin() + n_sub,
                                               tau_b.begin()))
                            << where;
                        ASSERT_TRUE(std::equal(mant_a.begin(),
                                               mant_a.begin() + n,
                                               mant_b.begin()))
                            << where;
                        ASSERT_EQ(pos, serial.bit_position()) << where;
                    }
                }
                EXPECT_EQ((serial.bit_position() + 7) / 8, size)
                    << fmt.name << " cols " << cols;
            }
        }
    }
}

namespace {

std::vector<float>
random_values(std::size_t n, std::uint64_t seed)
{
    stats::Rng rng(seed);
    std::vector<float> v(n);
    for (auto& x : v)
        x = static_cast<float>(rng.normal(0.0, std::exp(rng.normal())));
    return v;
}

} // namespace

class CodecRoundTrip : public ::testing::TestWithParam<BdrFormat>
{
};

TEST_P(CodecRoundTrip, UnpackMatchesFakeQuantize)
{
    const BdrFormat fmt = GetParam();
    auto x = random_values(333, 2024); // deliberately not a k1 multiple
    PackedTensor p = pack(fmt, x);
    auto decoded = unpack(p);
    auto reference = fake_quantize(fmt, x);
    ASSERT_EQ(decoded.size(), reference.size());
    for (std::size_t i = 0; i < decoded.size(); ++i) {
        if (fmt.s_kind == ScaleKind::Pow2Hw) {
            EXPECT_EQ(decoded[i], reference[i])
                << fmt.name << " index " << i;
        } else {
            // SW-scaled paths store the FP32 scale; tiny rounding of the
            // stored scale vs the double-precision reference is allowed.
            EXPECT_NEAR(decoded[i], reference[i],
                        2e-5f * (std::fabs(reference[i]) + 1e-4f))
                << fmt.name << " index " << i;
        }
    }
}

TEST_P(CodecRoundTrip, BitSizeMatchesAccounting)
{
    const BdrFormat fmt = GetParam();
    auto x = random_values(512, 99);
    PackedTensor p = pack(fmt, x);
    EXPECT_EQ(p.bit_size, packed_bits(fmt, x.size())) << fmt.name;
    EXPECT_EQ(p.bytes.size(), (p.bit_size + 7) / 8) << fmt.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, CodecRoundTrip,
    ::testing::Values(mx9(), mx6(), mx4(), msfp16(), msfp12(),
                      mx_custom(5, 8, 32, 2, 4), fp8_e4m3(), fp8_e5m2(),
                      fp4_e2m1(), fp6_e2m3(), scaled_int(4), scaled_int(8),
                      vsq(4, 4), vsq(8, 8)),
    [](const ::testing::TestParamInfo<BdrFormat>& info) {
        std::string n = info.param.name;
        for (char& c : n)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

TEST(Codec, Mx9TileIs2304Bits)
{
    // 256 elements: 16 blocks x (8-bit exp + 8 x 1-bit micro-exp +
    // 16 x 8-bit elements) = 2304 bits — the Section IV-B packing input.
    EXPECT_EQ(packed_bits(mx9(), 256), 2304u);
    EXPECT_EQ(packed_bits(mx6(), 256), 1536u);
    EXPECT_EQ(packed_bits(mx4(), 256), 1024u);
    EXPECT_EQ(packed_bits(msfp16(), 256), 2176u);
}

TEST(Codec, EmptyTensor)
{
    PackedTensor p = pack(mx9(), std::vector<float>{});
    EXPECT_EQ(p.bit_size, 0u);
    EXPECT_TRUE(unpack(p).empty());
}

TEST(Codec, UnpackRejectsTruncatedPow2Stream)
{
    // The pow2 decode checks the stream length once, up front, instead
    // of per field: a stream one byte short must throw, not over-read.
    PackedTensor p = pack(mx6(), random_values(40, 3));
    p.bytes.pop_back();
    EXPECT_THROW(unpack(p), ArgumentError);
}

TEST(Codec, RejectsStochasticRounding)
{
    auto x = random_values(16, 1);
    EXPECT_THROW(pack(mx9(), x, RoundingMode::Stochastic), ArgumentError);
}
