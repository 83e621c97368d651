#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "common/crc32.h"
#include "common/result.h"
#include "common/status.h"
#include "common/str_util.h"
#include "common/varint.h"

namespace xorator {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.message(), "bad token");
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
  EXPECT_EQ(StatusCodeToString(StatusCode::kIOError), "IOError");
  EXPECT_EQ(StatusCodeToString(StatusCode::kAlreadyExists), "AlreadyExists");
  EXPECT_EQ(StatusCodeToString(StatusCode::kNotImplemented),
            "NotImplemented");
  EXPECT_EQ(StatusCodeToString(StatusCode::kInternal), "Internal");
  EXPECT_EQ(StatusCodeToString(StatusCode::kInvalidArgument),
            "InvalidArgument");
  EXPECT_EQ(StatusCodeToString(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_EQ(StatusCodeToString(StatusCode::kCorruption), "Corruption");
  EXPECT_EQ(StatusCodeToString(StatusCode::kUnavailable), "Unavailable");
}

TEST(StatusTest, CorruptionAndUnavailableFactories) {
  Status c = Status::Corruption("checksum mismatch");
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.code(), StatusCode::kCorruption);
  EXPECT_EQ(c.ToString(), "Corruption: checksum mismatch");
  Status u = Status::Unavailable("disk busy");
  EXPECT_EQ(u.code(), StatusCode::kUnavailable);
  EXPECT_EQ(u.ToString(), "Unavailable: disk busy");
}

TEST(Crc32Test, KnownVectorsAndSeedChaining) {
  // The canonical CRC-32 ("123456789" -> 0xCBF43926).
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  // Chaining via the seed equals hashing the concatenation.
  uint32_t whole = Crc32("hello world", 11);
  uint32_t chained = Crc32(" world", 6, Crc32("hello", 5));
  EXPECT_EQ(whole, chained);
  // Any bit flip changes the sum.
  std::string data(256, '\0');
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<char>(i);
  uint32_t base = Crc32(data.data(), data.size());
  data[100] ^= 0x40;
  EXPECT_NE(Crc32(data.data(), data.size()), base);
}

// The definition of CRC-32: one shift/XOR step per bit, nothing shared with
// the table or the carry-less-multiply kernel.
uint32_t BitwiseCrc32(const unsigned char* bytes, size_t length,
                      uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < length; ++i) {
    crc ^= bytes[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
  }
  return ~crc;
}

std::vector<unsigned char> RandomBytes(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<unsigned char> bytes(n);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng() & 0xFFu);
  return bytes;
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthOffsetAndSeed) {
  const std::vector<unsigned char> buf = RandomBytes(8192 + 16, 20021);
  const uint32_t random_seed = std::random_device{}();
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 1100; ++n) lengths.push_back(n);
  lengths.push_back(8188);
  lengths.push_back(8192);
  for (uint32_t seed : {0u, 1u, random_seed}) {
    for (size_t offset = 0; offset < 16; ++offset) {
      for (size_t n : lengths) {
        const unsigned char* p = buf.data() + offset;
        ASSERT_EQ(Crc32(p, n, seed), BitwiseCrc32(p, n, seed))
            << "length " << n << " offset " << offset << " seed " << seed;
      }
    }
  }
}

TEST(Crc32Test, ChainsAtEverySplitPoint) {
  const std::vector<unsigned char> buf = RandomBytes(300, 7);
  const uint32_t whole = BitwiseCrc32(buf.data(), buf.size(), 0);
  for (size_t split = 0; split <= buf.size(); ++split) {
    const uint32_t head = Crc32(buf.data(), split);
    EXPECT_EQ(Crc32(buf.data() + split, buf.size() - split, head), whole)
        << "split at " << split;
  }
}

TEST(Crc32Test, EverySingleBitFlipInAPageChangesTheSum) {
  std::vector<unsigned char> page = RandomBytes(8192, 99);
  const uint32_t base = Crc32(page.data(), page.size());
  for (size_t k = 0; k < 64; ++k) {
    // Spread over the page, landing on varied in-lane offsets and bits.
    const size_t pos = (k * 8192) / 64 + (k * 7) % 128;
    const auto mask = static_cast<unsigned char>(1u << (k % 8));
    page[pos] ^= mask;
    EXPECT_NE(Crc32(page.data(), page.size()), base) << "byte " << pos;
    EXPECT_EQ(Crc32(page.data(), page.size()),
              BitwiseCrc32(page.data(), page.size(), 0));
    page[pos] ^= mask;
  }
  EXPECT_EQ(Crc32(page.data(), page.size()), base);
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Result<int> DoubleIt(int x) {
  XO_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, ValuePath) {
  Result<int> r = DoubleIt(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, ErrorPath) {
  Result<int> r = DoubleIt(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, MoveOnlyValues) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

TEST(StrUtilTest, CaseConversions) {
  EXPECT_EQ(ToLower("SpEeCh"), "speech");
  EXPECT_EQ(ToUpper("act"), "ACT");
  EXPECT_TRUE(EqualsIgnoreCase("LINE", "line"));
  EXPECT_FALSE(EqualsIgnoreCase("LINE", "lines"));
}

TEST(StrUtilTest, SplitAndJoin) {
  auto parts = Split("a/b//c", '/');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Join({"x", "y"}, "::"), "x::y");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StrUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  a b \n"), "a b");
  EXPECT_EQ(StripWhitespace("\t\n "), "");
}

struct LikeCase {
  const char* value;
  const char* pattern;
  bool match;
};

class LikeMatchTest : public ::testing::TestWithParam<LikeCase> {};

TEST_P(LikeMatchTest, Matches) {
  const LikeCase& c = GetParam();
  EXPECT_EQ(LikeMatch(c.value, c.pattern), c.match)
      << c.value << " LIKE " << c.pattern;
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, LikeMatchTest,
    ::testing::Values(
        LikeCase{"hello", "hello", true}, LikeCase{"hello", "h%", true},
        LikeCase{"hello", "%o", true}, LikeCase{"hello", "%ell%", true},
        LikeCase{"hello", "h_llo", true}, LikeCase{"hello", "h_lo", false},
        LikeCase{"hello", "%", true}, LikeCase{"", "%", true},
        LikeCase{"", "_", false}, LikeCase{"abc", "%a%b%c%", true},
        LikeCase{"my friend speaks", "%friend%", true},
        LikeCase{"friendly", "friend", false},
        LikeCase{"aaab", "%aab", true}, LikeCase{"abab", "%ab", true}));

TEST(VarintTest, SmallValues) {
  std::string buf;
  PutVarint(&buf, 0);
  PutVarint(&buf, 127);
  PutVarint(&buf, 128);
  size_t pos = 0;
  EXPECT_EQ(*GetVarint(buf, &pos), 0u);
  EXPECT_EQ(*GetVarint(buf, &pos), 127u);
  EXPECT_EQ(*GetVarint(buf, &pos), 128u);
  EXPECT_EQ(pos, buf.size());
}

TEST(VarintTest, TruncatedFails) {
  std::string buf;
  PutVarint(&buf, 1u << 20);
  buf.pop_back();
  size_t pos = 0;
  EXPECT_FALSE(GetVarint(buf, &pos).ok());
}

TEST(VarintTest, RandomRoundTrip) {
  std::mt19937_64 rng(11);
  std::string buf;
  std::vector<uint64_t> values;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng() >> (rng() % 64);
    values.push_back(v);
    PutVarint(&buf, v);
  }
  size_t pos = 0;
  for (uint64_t v : values) {
    auto got = GetVarint(buf, &pos);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(VarintTest, ZigZag) {
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{12345},
                    int64_t{-12345}, INT64_MAX, INT64_MIN}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
}

TEST(HashTest, DistinctStrings) {
  EXPECT_NE(Hash64("a"), Hash64("b"));
  EXPECT_EQ(Hash64("speech"), Hash64("speech"));
  EXPECT_NE(Hash64(""), Hash64("x"));
}

}  // namespace
}  // namespace xorator
