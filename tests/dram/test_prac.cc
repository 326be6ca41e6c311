/**
 * @file
 * PracCounters unit tests.
 */

#include <gtest/gtest.h>

#include "common/serialize.hh"
#include "dram/prac.hh"

namespace mopac
{
namespace
{

TEST(PracCounters, StartsAtZero)
{
    PracCounters prac(4, 128, 2);
    for (unsigned chip = 0; chip < 2; ++chip) {
        for (unsigned bank = 0; bank < 4; ++bank) {
            EXPECT_EQ(prac.get(chip, bank, 0), 0u);
            EXPECT_EQ(prac.get(chip, bank, 127), 0u);
        }
    }
}

TEST(PracCounters, AddAccumulatesPerSlot)
{
    PracCounters prac(2, 64, 2);
    EXPECT_EQ(prac.add(0, 1, 10, 8), 8u);
    EXPECT_EQ(prac.add(0, 1, 10, 8), 16u);
    // Other chips / banks / rows untouched.
    EXPECT_EQ(prac.get(1, 1, 10), 0u);
    EXPECT_EQ(prac.get(0, 0, 10), 0u);
    EXPECT_EQ(prac.get(0, 1, 11), 0u);
}

TEST(PracCounters, SaturatesAt22Bits)
{
    PracCounters prac(1, 8, 1);
    const std::uint32_t max = (1u << 22) - 1;
    prac.add(0, 0, 0, max - 1);
    EXPECT_EQ(prac.add(0, 0, 0, 1000), max);
    EXPECT_EQ(prac.add(0, 0, 0, 1), max);
}

TEST(PracCounters, ResetClearsAllChips)
{
    PracCounters prac(2, 16, 3);
    for (unsigned chip = 0; chip < 3; ++chip) {
        prac.add(chip, 1, 5, chip + 1);
    }
    prac.reset(1, 5);
    for (unsigned chip = 0; chip < 3; ++chip) {
        EXPECT_EQ(prac.get(chip, 1, 5), 0u);
    }
}

TEST(PracCounters, ResetChipIsChipLocal)
{
    PracCounters prac(1, 16, 2);
    prac.add(0, 0, 3, 7);
    prac.add(1, 0, 3, 9);
    prac.resetChip(0, 0, 3);
    EXPECT_EQ(prac.get(0, 0, 3), 0u);
    EXPECT_EQ(prac.get(1, 0, 3), 9u);
}

TEST(PracCounters, ResetRangeSweepsRowsOnAllChips)
{
    PracCounters prac(2, 32, 2);
    for (std::uint32_t row = 0; row < 32; ++row) {
        prac.add(0, 1, row, 1);
        prac.add(1, 1, row, 2);
    }
    prac.resetRange(1, 8, 16);
    for (std::uint32_t row = 0; row < 32; ++row) {
        const bool swept = row >= 8 && row < 16;
        EXPECT_EQ(prac.get(0, 1, row), swept ? 0u : 1u) << row;
        EXPECT_EQ(prac.get(1, 1, row), swept ? 0u : 2u) << row;
    }
    // The other bank is untouched by the range reset.
    prac.add(0, 0, 9, 5);
    prac.resetRange(1, 0, 32);
    EXPECT_EQ(prac.get(0, 0, 9), 5u);
}

TEST(PracCounters, StorageBytesReflectsDimensions)
{
    PracCounters prac(4, 256, 2);
    EXPECT_EQ(prac.storageBytes(), 4ull * 256 * 2 * sizeof(std::uint32_t));
}

TEST(PracCounters, SnapshotIsChipMajorByteForByte)
{
    // The in-memory layout is chip-minor; the stream must not be.
    constexpr unsigned kBanks = 4;
    constexpr std::uint32_t kRows = 64;
    PracCounters prac(kBanks, kRows, 4);
    prac.add(1, 0, 0, 77);
    Serializer ser;
    prac.saveState(ser);
    Deserializer des(ser.finish(FileKind::kSnapshot, 1),
                     FileKind::kSnapshot, 1);
    EXPECT_EQ(des.getU32(), kBanks);
    EXPECT_EQ(des.getU32(), kRows);
    EXPECT_EQ(des.getU32(), 4u);
    const std::vector<std::uint32_t> stream = des.getVecU32();
    des.finish();
    ASSERT_EQ(stream.size(), 4u * kBanks * kRows);
    for (std::size_t k = 0; k < stream.size(); ++k) {
        EXPECT_EQ(stream[k], k == kBanks * kRows ? 77u : 0u) << k;
    }
}

} // namespace
} // namespace mopac
