/**
 * @file
 * RowTable tests: zero on demand, chip-minor adjacency, range
 * clears, the chip-major save/load transcode, and bounds asserts.
 */

#include <utility>
#include <vector>

#include <sys/resource.h>

#include <gtest/gtest.h>

#include "common/serialize.hh"
#include "dram/row_table.hh"

namespace mopac
{
namespace
{

constexpr std::uint64_t kHash = 0x726f77;

std::vector<std::uint8_t>
saved(const RowTable &table)
{
    Serializer ser;
    table.saveState(ser);
    return ser.finish(FileKind::kSnapshot, kHash);
}

std::uint64_t
threadMinorFaults()
{
    rusage usage{};
    ::getrusage(RUSAGE_THREAD, &usage);
    return static_cast<std::uint64_t>(usage.ru_minflt);
}

TEST(RowTable, FreshFullSizeTableReadsZero)
{
    // The default geometry: 4 chips x 32 banks x 64K rows.
    RowTable table(4, 32, 65536);
    const RowTable &view = table;
    EXPECT_EQ(table.size(), 4ull * 32 * 65536);
    const std::uint64_t before = threadMinorFaults();
    for (unsigned chip = 0; chip < 4; ++chip) {
        for (unsigned bank : {0u, 1u, 17u, 31u}) {
            for (std::uint32_t row : {0u, 1u, 4095u, 4096u, 40000u,
                                      65534u, 65535u}) {
                EXPECT_EQ(view.at(chip, bank, row), 0u)
                    << chip << "/" << bank << "/" << row;
            }
        }
    }
    // Reads and sweeps of unwritten rows touch no page.
    for (unsigned bank = 0; bank < 32; ++bank) {
        table.clearRows(bank, 0, 65536);
    }
    EXPECT_LT(threadMinorFaults() - before, 64u);
}

TEST(RowTable, ChipsOfARowMayStraddleAGranule)
{
    // 3 chips: row 341's entries are 1023..1025, across the first
    // 1024-entry granule boundary.
    RowTable table(3, 1, 1024);
    std::uint32_t *counts = table.chipsOf(0, 341);
    counts[0] = 1;
    counts[1] = 2;
    counts[2] = 3;
    const RowTable &view = table;
    EXPECT_EQ(view.at(0, 0, 341), 1u);
    EXPECT_EQ(view.at(1, 0, 341), 2u);
    EXPECT_EQ(view.at(2, 0, 341), 3u);
    table.clearRows(0, 341, 342);
    EXPECT_EQ(view.at(1, 0, 341), 0u);
    EXPECT_EQ(view.at(2, 0, 341), 0u);
}

TEST(RowTable, ChipsOfOneRowAreAdjacent)
{
    RowTable table(3, 2, 16);
    for (unsigned chip = 0; chip < 3; ++chip) {
        table.at(chip, 1, 5) = 10 + chip;
    }
    const std::uint32_t *counts = table.chipsOf(1, 5);
    EXPECT_EQ(counts[0], 10u);
    EXPECT_EQ(counts[1], 11u);
    EXPECT_EQ(counts[2], 12u);
}

TEST(RowTable, ClearRowsZeroesOnlyTheRangeOfOneBank)
{
    RowTable table(2, 2, 32);
    for (unsigned bank = 0; bank < 2; ++bank) {
        for (std::uint32_t row = 0; row < 32; ++row) {
            table.at(0, bank, row) = 1;
            table.at(1, bank, row) = 2;
        }
    }
    table.clearRows(1, 8, 16);
    for (std::uint32_t row = 0; row < 32; ++row) {
        const bool swept = row >= 8 && row < 16;
        EXPECT_EQ(table.at(0, 1, row), swept ? 0u : 1u) << row;
        EXPECT_EQ(table.at(1, 1, row), swept ? 0u : 2u) << row;
        EXPECT_EQ(table.at(0, 0, row), 1u) << row;
    }
}

TEST(RowTable, SaveIsChipMajorAndLoadRoundTrips)
{
    RowTable table(2, 3, 5);
    table.at(1, 0, 0) = 7;
    table.at(0, 2, 4) = 9;
    const std::vector<std::uint8_t> image = saved(table);

    // Chip-major element order: (chip * banks + bank) * rows + row.
    Deserializer des(image, FileKind::kSnapshot, kHash);
    const std::vector<std::uint32_t> stream = des.getVecU32();
    ASSERT_EQ(stream.size(), 30u);
    for (std::size_t k = 0; k < stream.size(); ++k) {
        const std::uint32_t want = k == 15 ? 7u : k == 14 ? 9u : 0u;
        EXPECT_EQ(stream[k], want) << k;
    }

    RowTable back(2, 3, 5);
    back.at(1, 1, 1) = 3; // Stale state the load must drop.
    Deserializer again(image, FileKind::kSnapshot, kHash);
    back.loadState(again);
    again.finish();
    EXPECT_EQ(saved(back), image);
    EXPECT_EQ(back.at(1, 1, 1), 0u);
}

TEST(RowTable, LoadRejectsAWrongSizeAndLeavesTheTable)
{
    RowTable small(1, 2, 4);
    small.at(0, 1, 3) = 5;
    RowTable big(1, 2, 8);
    big.at(0, 0, 0) = 4;
    Deserializer des(saved(small), FileKind::kSnapshot, kHash);
    EXPECT_THROW(big.loadState(des), SerializeError);
    EXPECT_EQ(big.at(0, 0, 0), 4u);
}

TEST(RowTable, MoveTransfersTheStorage)
{
    RowTable a(2, 2, 8);
    a.at(1, 1, 7) = 42;
    RowTable b(std::move(a));
    EXPECT_EQ(b.at(1, 1, 7), 42u);
    RowTable c(1, 1, 1);
    c = std::move(b);
    EXPECT_EQ(c.chips(), 2u);
    EXPECT_EQ(c.at(1, 1, 7), 42u);
}

TEST(RowTableDeathTest, OutOfRangeIndexAsserts)
{
    RowTable table(2, 2, 8);
    EXPECT_DEATH(table.at(2, 0, 0), "assertion failed");
    EXPECT_DEATH(table.at(0, 2, 0), "assertion failed");
    EXPECT_DEATH(table.at(0, 0, 8), "assertion failed");
}

} // namespace
} // namespace mopac
