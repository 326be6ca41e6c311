/**
 * @file
 * RowTable tests: zero on demand, faults in proportion to the blocks
 * written, chip-minor adjacency, range clears across blocks, the
 * chip-major save/load transcode, and bounds asserts.
 */

#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

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

TEST(RowTable, ScatteredRowWritesFaultInProportionToBytes)
{
    // One count in each of 4096 rows, 128 per bank, each row in its
    // own block and 512 rows from the next: the scattered pattern of a
    // memory-bound run.  Faults must follow the bytes of the blocks
    // written plus the directory, not one page per row.
    constexpr unsigned kChips = 4;
    constexpr unsigned kBanks = 32;
    constexpr std::uint32_t kRows = 65536;
    constexpr std::uint32_t kPerBank = 128;
    RowTable table(kChips, kBanks, kRows);
    const std::uint64_t page =
        static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
    const std::uint64_t blocks = std::uint64_t{kBanks} * kPerBank;
    const std::uint64_t block_bytes =
        std::uint64_t{RowTable::kBlockRows} * kChips * sizeof(std::uint32_t);
    const std::uint64_t dir_pages =
        (std::uint64_t{kBanks} * (kRows / RowTable::kBlockRows) *
             sizeof(std::uint32_t) +
         page - 1) /
        page;
    const std::uint64_t before = threadMinorFaults();
    for (std::uint32_t k = 0; k < kPerBank; ++k) {
        for (unsigned bank = 0; bank < kBanks; ++bank) {
            const std::uint32_t row = k * (kRows / kPerBank) + bank;
            ++table.at(bank % kChips, bank, row);
        }
    }
    const std::uint64_t faults = threadMinorFaults() - before;
    EXPECT_LT(faults, blocks * block_bytes / page + dir_pages + 64)
        << "for " << blocks << " scattered rows";
    const RowTable &view = table;
    EXPECT_EQ(view.at(3, 3, 512 + 3), 1u);
    EXPECT_EQ(view.at(2, 3, 512 + 3), 0u);
}

TEST(RowTable, ChipsOfARowMayStraddleAGranule)
{
    // 3 chips: a block is 16 rows x 3 words = 192 B, so blocks do not
    // align to 4 KiB pages.  Handing out blocks 0..20 first puts row
    // 341 (block 21, row 5 in it) at words 1023..1025 of the block
    // storage: its chips stay adjacent inside one block even though
    // they cross a page, and a fresh block spanning two pages still
    // reads back zero everywhere.
    RowTable table(3, 1, 1024);
    for (std::uint32_t row = 0; row < 341; row += RowTable::kBlockRows) {
        table.at(0, 0, row) = 9;
    }
    std::uint32_t *counts = table.chipsOf(0, 341);
    counts[0] = 1;
    counts[1] = 2;
    counts[2] = 3;
    const RowTable &view = table;
    EXPECT_EQ(view.at(0, 0, 341), 1u);
    EXPECT_EQ(view.at(1, 0, 341), 2u);
    EXPECT_EQ(view.at(2, 0, 341), 3u);
    EXPECT_EQ(view.at(2, 0, 351), 0u);
    table.clearRows(0, 341, 342);
    EXPECT_EQ(view.at(1, 0, 341), 0u);
    EXPECT_EQ(view.at(2, 0, 341), 0u);
    EXPECT_EQ(view.at(0, 0, 336), 9u);
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

TEST(RowTable, ClearRowsSpansAllocatedAndUnallocatedBlocks)
{
    // Blocks 0 and 2 of bank 1 are written, block 1 is not; the clear
    // runs from inside block 0 across block 1 into block 2.
    constexpr std::uint32_t kB = RowTable::kBlockRows;
    RowTable table(2, 2, 4 * kB);
    for (unsigned bank = 0; bank < 2; ++bank) {
        for (std::uint32_t row = 0; row < 4 * kB; ++row) {
            if (row / kB != 1) {
                table.at(0, bank, row) = 1 + row;
                table.at(1, bank, row) = 100 + row;
            }
        }
    }
    table.clearRows(1, kB / 2, 2 * kB + kB / 2);
    const RowTable &view = table;
    for (std::uint32_t row = 0; row < 4 * kB; ++row) {
        const bool swept = row >= kB / 2 && row < 2 * kB + kB / 2;
        const bool written = row / kB != 1;
        const std::uint32_t chip0 = written && !swept ? 1 + row : 0;
        const std::uint32_t chip1 = written && !swept ? 100 + row : 0;
        EXPECT_EQ(view.at(0, 1, row), chip0) << row;
        EXPECT_EQ(view.at(1, 1, row), chip1) << row;
        EXPECT_EQ(view.at(0, 0, row), written ? 1 + row : 0) << row;
    }
    // The unwritten block is still free to be handed out.
    table.at(1, 1, kB) = 5;
    EXPECT_EQ(view.at(1, 1, kB), 5u);
    EXPECT_EQ(view.at(0, 1, 2 * kB + kB / 2), 1 + 2 * kB + kB / 2);
}

TEST(RowTable, RestoreOverStaleRowsThenFreshWritesMatchAReference)
{
    // The loaded table holds stale blocks in the lower half of every
    // bank, and the fresh writes after the load land in the upper
    // half.  A restore that kept stale directory entries would hand
    // the fresh rows blocks that stale entries still point to.
    using Key = std::tuple<unsigned, unsigned, std::uint32_t>;
    constexpr unsigned kChips = 2;
    constexpr unsigned kBanks = 3;
    constexpr std::uint32_t kRows = 200;
    std::map<Key, std::uint32_t> want;
    RowTable source(kChips, kBanks, kRows);
    for (std::uint32_t k = 0; k < 40; ++k) {
        const Key key{k % kChips, k % kBanks, (k * 37) % kRows};
        source.at(std::get<0>(key), std::get<1>(key), std::get<2>(key)) =
            want[key] = 1000 + k;
    }
    const std::vector<std::uint8_t> image = saved(source);

    RowTable table(kChips, kBanks, kRows);
    for (std::uint32_t row = 0; row < kRows / 2; row += 3) {
        for (unsigned bank = 0; bank < kBanks; ++bank) {
            table.at(1, bank, row) = 7; // Stale: dropped by the load.
        }
    }
    Deserializer des(image, FileKind::kSnapshot, kHash);
    table.loadState(des);
    des.finish();
    for (std::uint32_t k = 0; k < 60; ++k) {
        const Key key{(k + 1) % kChips, (k * 5) % kBanks,
                      kRows / 2 + (k * 53 + 11) % (kRows / 2)};
        table.at(std::get<0>(key), std::get<1>(key), std::get<2>(key)) =
            want[key] = 5000 + k;
    }

    const RowTable &view = table;
    for (unsigned chip = 0; chip < kChips; ++chip) {
        for (unsigned bank = 0; bank < kBanks; ++bank) {
            for (std::uint32_t row = 0; row < kRows; ++row) {
                const auto it = want.find(Key{chip, bank, row});
                EXPECT_EQ(view.at(chip, bank, row),
                          it == want.end() ? 0u : it->second)
                    << chip << "/" << bank << "/" << row;
            }
        }
    }
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
