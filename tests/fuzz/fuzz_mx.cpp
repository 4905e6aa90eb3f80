/**
 * @file
 * Fuzz harness for the two untrusted-bytes decoders:
 *
 *   leg 0: artifact::ArtifactReader — the open path.  The contract
 *          under test is reader.h's eager validation: ANY byte string
 *          either opens fully validated or throws the format.h error
 *          taxonomy (ArtifactError).  Crashes, sanitizer reports, and
 *          non-taxonomy exceptions are findings.
 *   leg 1: core::BitReader — LSB-first field extraction.  Contract:
 *          any read schedule either yields values or throws
 *          ArgumentError ("out of data"/"bad field width"); no OOB.
 *   leg 2: gemm::PackedOperand::decode_rows — the word-at-a-time MX
 *          block reader over arbitrary payload bytes.  The first
 *          payload byte picks the format and the [rows x cols] shape;
 *          the rest (cut to whole rows) is the stream.  Contract: the
 *          view equals a bit-serial BitReader decode of the same bytes
 *          field for field (a mismatch aborts), and no window reads
 *          past the buffer.
 *   leg 3: gemm::PackedOperand::quantize — the activation encoder over
 *          arbitrary floats.  The first payload byte picks the format
 *          and the width; the rest, read as raw float bits (NaN, +-Inf
 *          and denormals included), fills a [rows x cols] operand.
 *          Contract: every SIMD level the host offers builds the same
 *          view as the scalar level, and that view equals
 *          decode_rows(pack_rows_aligned(x)) field for field (a
 *          mismatch aborts).
 *
 * The first input byte selects the leg (its value mod 4); the rest is
 * the payload, so one corpus (seeded from tests/data/) drives all four.
 *
 * Built two ways by tests/fuzz/CMakeLists.txt:
 *   * Clang: -fsanitize=fuzzer, libFuzzer provides main() — the real
 *     coverage-guided run (CI: 60s smoke in the sanitize job).
 *   * otherwise: a standalone main() below replays files/dirs passed
 *     as arguments, so the harness itself stays buildable and the
 *     corpus replayable under GCC ASan locally.
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "artifact/format.h"
#include "artifact/reader.h"
#include "core/bdr_format.h"
#include "core/bitstream.h"
#include "core/check.h"
#include "core/kernels/dispatch.h"
#include "core/kernels/quant_kernel.h"
#include "gemm/gemm_plan.h"
#include "gemm/packed_operand.h"

namespace {

/** Temp file holding the fuzz payload (the reader API is path-based). */
std::string
spill(const std::uint8_t* data, std::size_t size)
{
    static const std::string path = [] {
        const char* tmp = std::getenv("TMPDIR"); // NOLINT: harness tier
        std::string dir = (tmp != nullptr && tmp[0] != '\0') ? tmp : "/tmp";
        return dir + "/mx_fuzz_artifact.bin";
    }();
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        return {};
    if (size != 0)
        std::fwrite(data, 1, size, f);
    std::fclose(f);
    return path;
}

void
fuzz_artifact_open(const std::uint8_t* data, std::size_t size)
{
    const std::string path = spill(data, size);
    if (path.empty())
        return;
    try {
        mx::artifact::ArtifactReader reader(path);
        // Well-formed input (e.g. the golden seed): walk the frozen
        // handles so the zero-copy path executes under the sanitizer.
        for (std::size_t i = 0; i < reader.entry_count(); ++i)
            (void)reader.frozen(i);
    } catch (const mx::artifact::ArtifactError&) {
        // The documented rejection taxonomy: expected.
    } catch (const mx::ArgumentError&) {
        // Validator-level MX_CHECK_ARG rejections: expected.
    }
}

void
fuzz_bit_reader(const std::uint8_t* data, std::size_t size)
{
    if (size == 0)
        return;
    // First half schedules the reads, second half is the bitstream, so
    // the fuzzer can mutate widths and payload independently.
    const std::size_t split = size / 2;
    std::vector<std::uint8_t> stream(data + split, data + size);
    mx::core::BitReader reader(stream);
    std::uint64_t sink = 0;
    try {
        for (std::size_t i = 0; i < split; ++i) {
            // 0..66: out-of-range widths must throw, not misread.
            sink ^= reader.read(static_cast<int>(data[i] % 67));
        }
    } catch (const mx::ArgumentError&) {
        // "bad field width" / "out of data": the documented contract.
    }
    (void)sink;
}

/**
 * The format and width that selector byte @p sel picks for legs 2 and 3:
 * byte-aligned 8-bit codes (MX9), windowed codes (MX6, MX4), d2 = 0
 * (MSFP16, BFP), d1 = 11, a header wider than one window (k1 = 64,
 * k2 = 2, d2 = 2), and k2 = 3 (the encoder's per-element shift table,
 * with a short chunk inside every block); widths 1..2 * k1 + 1.
 */
struct Shape
{
    mx::core::kernels::QuantPlan plan;
    std::size_t cols = 0;
};

Shape
pick_shape(std::uint8_t sel)
{
    static const mx::core::BdrFormat formats[] = {
        mx::core::mx9(),
        mx::core::mx6(),
        mx::core::mx4(),
        mx::core::msfp16(),
        mx::core::bfp_custom(5, 8, 32),
        mx::core::mx_custom(7, 11, 16, 1, 2),
        mx::core::mx_custom(3, 8, 64, 2, 2),
        mx::core::mx_custom(5, 8, 24, 2, 3),
    };
    constexpr std::size_t kFormats = std::size(formats);
    Shape shape;
    shape.plan = mx::core::kernels::make_quant_plan(formats[sel % kFormats]);
    const std::size_t k1 = static_cast<std::size_t>(shape.plan.k1);
    shape.cols = 1 + (sel / kFormats) % (2 * k1 + 1);
    return shape;
}

void
fuzz_block_decode(const std::uint8_t* data, std::size_t size)
{
    if (size == 0)
        return;
    const auto [plan, cols] = pick_shape(data[0]);
    const std::size_t k1 = static_cast<std::size_t>(plan.k1);
    const std::size_t stride = mx::gemm::row_stream_bytes(plan, cols);
    const std::size_t rows = (size - 1) / stride;
    if (rows == 0)
        return;
    // An exact-size heap copy: the last row ends on the final byte, so
    // a window that over-reads trips ASan.
    const std::size_t bytes = rows * stride;
    auto stream = std::make_unique<std::uint8_t[]>(bytes);
    std::copy(data + 1, data + 1 + bytes, stream.get());
    const std::span<const std::uint8_t> view(stream.get(), bytes);
    const mx::gemm::PackedOperand op =
        mx::gemm::PackedOperand::decode_rows(plan, view, rows, cols);

    // The bit-serial reference: one BitReader call per field, then the
    // same fold M' = M << (beta - tau).
    std::vector<std::uint8_t> tau(plan.num_sub_blocks(k1));
    for (std::size_t r = 0; r < rows; ++r) {
        mx::core::BitReader reader(view.subspan(r * stride, stride));
        const std::int16_t* mant = op.row_mantissa(r);
        const mx::gemm::ExpRow exp = op.row_exp(r);
        for (std::size_t off = 0; off < cols; off += k1) {
            const std::size_t n = std::min(k1, cols - off);
            const int e = static_cast<int>(reader.read(plan.d1)) - plan.e_max;
            if (exp[off / k1] != e)
                std::abort();
            for (std::size_t s = 0; s < plan.num_sub_blocks(n); ++s)
                tau[s] = static_cast<std::uint8_t>(reader.read(plan.d2));
            for (std::size_t i = 0; i < n; ++i) {
                const std::uint64_t code = reader.read(1 + plan.m);
                const auto mag = static_cast<std::int32_t>(code >> 1);
                const std::int32_t m = (code & 1) != 0 ? -mag : mag;
                const int shift =
                    plan.beta - tau[i / static_cast<std::size_t>(plan.k2)];
                if (mant[off + i] != m * (1 << shift))
                    std::abort();
            }
        }
    }
}

/** Abort unless @p a and @p b are the same view field for field. */
void
require_same_view(const mx::gemm::PackedOperand& a,
                  const mx::gemm::PackedOperand& b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        std::abort();
    for (std::size_t r = 0; r < a.rows(); ++r) {
        if (!std::equal(a.row_mantissa(r), a.row_mantissa(r) + a.cols(),
                        b.row_mantissa(r)))
            std::abort();
        for (std::size_t blk = 0; blk < a.blocks_per_row(); ++blk)
            if (a.row_exp(r)[blk] != b.row_exp(r)[blk])
                std::abort();
    }
}

void
fuzz_encoder(const std::uint8_t* data, std::size_t size)
{
    namespace ck = mx::core::kernels;
    if (size == 0)
        return;
    const auto [plan, cols] = pick_shape(data[0]);
    const std::size_t rows = (size - 1) / sizeof(float) / cols;
    if (rows == 0)
        return;
    std::vector<float> x(rows * cols);
    std::memcpy(x.data(), data + 1, x.size() * sizeof(float));
    const mx::core::Rounder rounder;

    ck::set_simd_level(ck::SimdLevel::Scalar);
    const mx::gemm::PackedOperand ref =
        mx::gemm::PackedOperand::quantize(plan, x.data(), rows, cols,
                                          rounder);
    std::vector<std::uint8_t> stream;
    mx::gemm::pack_rows_aligned(plan, x.data(), rows, cols, rounder, stream);
    require_same_view(ref, mx::gemm::PackedOperand::decode_rows(
                               plan, stream, rows, cols));
    for (const ck::SimdLevel level :
         {ck::SimdLevel::Avx2, ck::SimdLevel::Avx512}) {
        ck::set_simd_level(level); // capped at what the host runs
        require_same_view(ref, mx::gemm::PackedOperand::quantize(
                                   plan, x.data(), rows, cols, rounder));
    }
    ck::reset_simd_level();
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size)
{
    if (size == 0)
        return 0;
    switch (data[0] % 4) {
      case 0:
        fuzz_artifact_open(data + 1, size - 1);
        break;
      case 1:
        fuzz_bit_reader(data + 1, size - 1);
        break;
      case 2:
        fuzz_block_decode(data + 1, size - 1);
        break;
      default:
        fuzz_encoder(data + 1, size - 1);
        break;
    }
    return 0;
}

#ifndef MX_FUZZ_LIBFUZZER
// Standalone replay driver (non-Clang builds): run every file named on
// the command line through the fuzz entry point once.
#include <filesystem>
#include <fstream>

namespace {

int
replay_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "fuzz_mx: cannot read %s\n", path.c_str());
        return 1;
    }
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    // Replay under every leg regardless of the selector byte so a
    // seed corpus of real artifacts exercises the BitReader and the
    // block decode too.
    for (std::uint8_t selector : {std::uint8_t{0}, std::uint8_t{1},
                                  std::uint8_t{2}, std::uint8_t{3}}) {
        std::vector<std::uint8_t> input;
        input.reserve(bytes.size() + 1);
        input.push_back(selector);
        input.insert(input.end(), bytes.begin(), bytes.end());
        LLVMFuzzerTestOneInput(input.data(), input.size());
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    int failures = 0;
    int replayed = 0;
    for (int i = 1; i < argc; ++i) {
        const std::filesystem::path arg(argv[i]);
        if (std::filesystem::is_directory(arg)) {
            for (const auto& entry :
                 std::filesystem::recursive_directory_iterator(arg)) {
                if (!entry.is_regular_file())
                    continue;
                failures += replay_file(entry.path().string());
                ++replayed;
            }
        } else {
            failures += replay_file(arg.string());
            ++replayed;
        }
    }
    std::printf("fuzz_mx: replayed %d input(s), %d failure(s)\n",
                replayed, failures);
    return failures == 0 ? 0 : 1;
}
#endif // !MX_FUZZ_LIBFUZZER
