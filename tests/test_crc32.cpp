// CRC-32: check vectors, chaining, every kernel of the dispatched family
// against a bytewise reference over every short length and alignment, and
// the seals of the three CRC-sealed on-disk record formats pinned to
// golden values, so a future kernel can never silently re-seal a format.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "codec/codec.h"
#include "codes/sd_code.h"
#include "common/cpu.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "decode/scenario.h"
#include "plan_store/plan_store.h"
#include "scrub/journal.h"
#include "search_coeff/cert_store.h"
#include "search_coeff/certify.h"
#include "test_util.h"

namespace ppm {
namespace {

// The byte-at-a-time table loop every kernel must agree with.
constexpr std::array<std::uint32_t, 256> make_reference_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kReferenceTable =
    make_reference_table();

// Advance a raw (pre-inverted) CRC register over `bytes` bytes.
std::uint32_t reference_update(std::uint32_t state, const std::uint8_t* p,
                               std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i) {
    state = kReferenceTable[(state ^ p[i]) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

std::uint32_t reference_crc32(const void* data, std::size_t bytes,
                              std::uint32_t seed = 0) {
  return ~reference_update(~seed, static_cast<const std::uint8_t*>(data),
                           bytes);
}

// Every distinct kernel this host can run, from the portable one up.
std::vector<Crc32Kernel> host_kernels() {
  std::vector<Crc32Kernel> kernels;
  for (const IsaLevel level : {IsaLevel::kScalar, IsaLevel::kSsse3,
                               IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    const Crc32Kernel& k = crc32_kernel_for(level);
    if (kernels.empty() || std::strcmp(kernels.back().name, k.name) != 0) {
      kernels.push_back(k);
    }
  }
  return kernels;
}

TEST(Crc32, CheckVectors) {
  static constexpr char kCheck[] = "123456789";
  EXPECT_EQ(crc32(kCheck, 9), 0xCBF43926u);
  EXPECT_EQ(crc32(kCheck, 0), 0u);
  EXPECT_EQ(crc32(nullptr, 0, 0x12345678u), 0x12345678u);
  for (const Crc32Kernel& k : host_kernels()) {
    EXPECT_EQ(k.fn(kCheck, 9, 0), 0xCBF43926u) << k.name;
    EXPECT_EQ(k.fn(kCheck, 0, 0), 0u) << k.name;
    EXPECT_EQ(k.fn(kCheck, 0, 0xDEADBEEFu), 0xDEADBEEFu) << k.name;
  }
}

TEST(Crc32, DispatchFollowsTheIsaCap) {
  EXPECT_STREQ(crc32_kernel_for(IsaLevel::kScalar).name, "slice8");
  // crc32 runs the kernel of the detected (PPM_FORCE_ISA-capped) level.
  const Crc32Kernel& active = crc32_kernel_for(detect_isa());
  Rng rng(3);
  const auto buf = test::random_bytes(rng, 5000);
  EXPECT_EQ(crc32(buf.data(), buf.size()),
            active.fn(buf.data(), buf.size(), 0));
  // Asking above the cap never reaches a wider kernel.
  EXPECT_STREQ(crc32_kernel_for(IsaLevel::kAvx512).name, active.name);
  if (detect_isa() == IsaLevel::kScalar) {
    EXPECT_STREQ(active.name, "slice8");
  }
}

TEST(Crc32, ChainingEqualsOneShot) {
  Rng rng(5);
  const auto buf = test::random_bytes(rng, 9000);
  const auto kernels = host_kernels();
  for (const std::size_t split : {std::size_t{0}, std::size_t{1},
                                  std::size_t{63}, std::size_t{64},
                                  std::size_t{255}, std::size_t{4096},
                                  std::size_t{8999}, std::size_t{9000}}) {
    const std::uint32_t whole = reference_crc32(buf.data(), buf.size());
    for (const Crc32Kernel& a : kernels) {
      const std::uint32_t head = a.fn(buf.data(), split, 0);
      // Any kernel may continue what any other started.
      for (const Crc32Kernel& b : kernels) {
        EXPECT_EQ(b.fn(buf.data() + split, buf.size() - split, head), whole)
            << a.name << " then " << b.name << " split=" << split;
      }
    }
  }
}

TEST(Crc32, EveryKernelMatchesReferenceAtEveryLengthAndOffset) {
  constexpr std::size_t kMaxLen = 4096;
  constexpr std::size_t kOffsets = 64;
  Rng rng(7);
  const auto buf = test::random_bytes(rng, kMaxLen + kOffsets);
  std::vector<std::uint32_t> expect(kMaxLen + 1);
  for (const Crc32Kernel& k : host_kernels()) {
    for (std::size_t off = 0; off < kOffsets; ++off) {
      // Odd offsets chain from a random seed, even ones start fresh.
      const auto seed =
          off % 2 == 0 ? 0u : static_cast<std::uint32_t>(rng.next());
      // Prefix CRCs of the reference: expect[len] covers buf[off, off+len).
      std::uint32_t state = ~seed;
      expect[0] = seed;
      for (std::size_t len = 1; len <= kMaxLen; ++len) {
        state = reference_update(state, buf.data() + off + len - 1, 1);
        expect[len] = ~state;
      }
      std::size_t mismatches = 0;
      for (std::size_t len = 0; len <= kMaxLen; ++len) {
        if (k.fn(buf.data() + off, len, seed) != expect[len]) {
          if (mismatches++ == 0) {
            ADD_FAILURE() << k.name << " off=" << off << " len=" << len;
          }
        }
      }
      EXPECT_EQ(mismatches, 0u) << k.name << " off=" << off;
    }
  }
}

TEST(Crc32, EveryKernelMatchesReferenceOnLargeBuffers) {
  Rng rng(9);
  for (const std::size_t bytes :
       {std::size_t{16} << 10, std::size_t{64} << 10,
        (std::size_t{64} << 10) + 77}) {
    const auto buf = test::random_bytes(rng, bytes + 3);
    const auto seed = static_cast<std::uint32_t>(rng.next());
    for (const std::size_t off : {std::size_t{0}, std::size_t{3}}) {
      const std::uint32_t expect =
          reference_crc32(buf.data() + off, bytes, seed);
      for (const Crc32Kernel& k : host_kernels()) {
        EXPECT_EQ(k.fn(buf.data() + off, bytes, seed), expect)
            << k.name << " bytes=" << bytes << " off=" << off;
      }
    }
  }
}

// ---- Golden seals of the on-disk record formats ---------------------------
//
// Each test builds one record deterministically and pins the CRC its
// header carries. The values were produced by the byte-table CRC every
// record on disk was sealed with; a kernel (or serializer) that changes
// one would orphan every record already written.

std::string read_text(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// "<MAGIC> <version> <crc hex> <len>\n<payload>": the header's CRC field,
// after checking it seals the payload.
std::uint32_t text_seal(const std::string& record) {
  const std::size_t eol = record.find('\n');
  EXPECT_NE(eol, std::string::npos);
  char magic[16] = {};
  unsigned version = 0;
  unsigned crc = 0;
  std::size_t len = 0;
  EXPECT_EQ(std::sscanf(record.c_str(), "%15s %u %x %zu", magic, &version,
                        &crc, &len),
            4);
  const std::string payload = record.substr(eol + 1);
  EXPECT_EQ(payload.size(), len);
  EXPECT_EQ(reference_crc32(payload.data(), payload.size()), crc);
  return crc;
}

TEST(Crc32Golden, PlanStoreRecordSeal) {
  const SDCode code(6, 8, 2, 2, SDCode::recommended_width(6, 8));
  std::vector<std::size_t> faulty;
  for (std::size_t row = 0; row < code.rows(); ++row) {
    faulty.push_back(code.block_id(row, 0));
  }
  const FailureScenario sc(faulty);
  Codec codec(code);
  const auto plan = codec.plan_for(sc);
  ASSERT_NE(plan, nullptr);
  const auto record = planstore::serialize_plan(code, sc, *plan);
  // PPMPLAN\0, u32 version, u32 crc, u64 length, payload (little-endian).
  ASSERT_GT(record.size(), 24u);
  std::uint32_t crc = 0;
  for (int i = 0; i < 4; ++i) {
    crc |= static_cast<std::uint32_t>(record[12 + i]) << (8 * i);
  }
  EXPECT_EQ(reference_crc32(record.data() + 24, record.size() - 24), crc);
  EXPECT_EQ(crc, 0x05298DFAu);
}

TEST(Crc32Golden, CertRecordSeal) {
  const coeffsearch::Geometry paper{6, 4, 2, 2, 8};
  const std::vector<gf::Element> tuple{1, 42, 26, 61};
  const coeffsearch::CertifyResult res =
      coeffsearch::certify_tuple(paper, tuple);
  ASSERT_TRUE(res.certified);
  const test::TempDir dir("crc_golden_cert");
  coeffsearch::CertStore store(dir.path());
  ASSERT_TRUE(store.put(res.cert));
  const std::string record = read_text(
      dir.path() / coeffsearch::CertStore::record_filename(paper));
  EXPECT_EQ(record.rfind("PPMCERT ", 0), 0u);
  EXPECT_EQ(text_seal(record), 0x2D68DDC0u);
}

TEST(Crc32Golden, RepairJournalRecordSeal) {
  const test::TempDir dir("crc_golden_journal");
  scrub::RepairJournal journal(dir.path());
  const auto seq = journal.begin("stripe-7", {2, 5}, {0xCBF43926u, 0x1u});
  ASSERT_TRUE(seq.has_value());
  const std::string record =
      read_text(dir.path() / scrub::RepairJournal::record_filename(*seq));
  EXPECT_EQ(record.rfind("PPMSCRUBJ ", 0), 0u);
  EXPECT_EQ(text_seal(record), 0x89C5FCA7u);
}

}  // namespace
}  // namespace ppm
