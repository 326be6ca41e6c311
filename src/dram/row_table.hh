/**
 * @file
 * Zero-on-demand per-row counter table.
 *
 * Both dense per-row arrays of a sub-channel -- the ground-truth
 * oracle (SecurityChecker) and the engines' PRAC counters
 * (PracCounters) -- are one uint32_t per (chip, bank, row): 8M words
 * at the default 4-chip geometry.  A short simulation writes only a
 * small, scattered share of those rows, so the table stores them in
 * small dense blocks handed out in first-touch order:
 *
 *  - A block holds kBlockRows consecutive rows of one bank on every
 *    chip (256 B at 4 chips).  Blocks come from the front of one
 *    private anonymous mapping, reserved at its worst-case size, by
 *    bumping a counter; the kernel materialises a page only on its
 *    first write, so resident memory follows the blocks written, not
 *    the rows' spread over the geometry.
 *  - A directory holds one uint32_t per (bank, row / kBlockRows):
 *    the id of its block, counting from 1, or 0 while the range was
 *    never written.  It is a zero-on-demand mapping too.
 *
 * Construction is therefore O(1) host work.  A bitmap records which
 * 4 KiB directory pages have been written.  Reads and range clears of
 * rows under an unwritten page return without touching memory.  The
 * first write to a directory page or to a fresh block stores into it
 * before anything loads from it: a load first would map the shared
 * zero page and the store after it would fault a second time.
 *
 * Layout is chip-minor: the chips() counts of one (bank, row) are
 * adjacent inside its block, so a per-ACT update of every chip
 * touches one cache line.  The serialized form is chip-major, the
 * order both arrays were always checkpointed in, so snapshots do not
 * depend on the in-memory layout or on the order blocks were handed
 * out.
 *
 * Every index is bounds-asserted: the table lives outside the
 * allocator, so AddressSanitizer cannot see an overflow inside it.
 */

#ifndef MOPAC_DRAM_ROW_TABLE_HH
#define MOPAC_DRAM_ROW_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/log.hh"

namespace mopac
{

class Serializer;
class Deserializer;

/** Fixed-size, move-only, zero-initialised (chip, bank, row) table. */
class RowTable
{
  public:
    /** Consecutive rows of one bank stored together in a block. */
    static constexpr std::uint32_t kBlockRows = 16;

    RowTable(unsigned chips, unsigned banks, std::uint32_t rows);
    ~RowTable();

    RowTable(RowTable &&other) noexcept;
    RowTable &operator=(RowTable &&other) noexcept;
    RowTable(const RowTable &) = delete;
    RowTable &operator=(const RowTable &) = delete;

    unsigned chips() const { return chips_; }
    unsigned banks() const { return banks_; }
    std::uint32_t rows() const { return rows_; }

    /** Entries in the table (chips x banks x rows). */
    std::size_t size() const { return size_; }

    std::uint32_t &
    at(unsigned chip, unsigned bank, std::uint32_t row)
    {
        return touch(slot(chip, bank, row))[offset(chip, row)];
    }

    std::uint32_t
    at(unsigned chip, unsigned bank, std::uint32_t row) const
    {
        const std::uint32_t *counts = find(slot(chip, bank, row));
        return counts != nullptr ? counts[offset(chip, row)] : 0;
    }

    /** The chips() adjacent counts of (bank, row), chip 0 first. */
    std::uint32_t *
    chipsOf(unsigned bank, std::uint32_t row)
    {
        return touch(slot(0, bank, row)) + offset(0, row);
    }

    /**
     * Zero rows [row_begin, row_end) of @p bank on every chip.
     * Blocks never handed out are skipped, so a refresh sweep over
     * untouched rows touches no memory.
     */
    void clearRows(unsigned bank, std::uint32_t row_begin,
                   std::uint32_t row_end);

    /** Write every entry, chip-major, in the putVecU32 format. */
    void saveState(Serializer &ser) const;

    /**
     * Replace the contents with an array written by saveState().  The
     * table is reset to fresh zero pages and only non-zero entries
     * are written back.  Throws SerializeError (leaving the table
     * unchanged) when the stored length differs from size().
     */
    void loadState(Deserializer &des);

  private:
    /** Directory entries per tracked page (4 KiB). */
    static constexpr std::size_t kDirPage = 1024;

    /** Directory slot of (bank, row); asserts every index. */
    std::size_t
    slot(unsigned chip, unsigned bank, std::uint32_t row) const
    {
        MOPAC_ASSERT(chip < chips_ && bank < banks_ && row < rows_);
        return static_cast<std::size_t>(bank) * bankBlocks() +
               row / kBlockRows;
    }

    /** Position of (chip, row) inside its block. */
    std::size_t
    offset(unsigned chip, std::uint32_t row) const
    {
        return static_cast<std::size_t>(row % kBlockRows) * chips_ + chip;
    }

    /** Blocks per bank: rows rounded up to whole blocks. */
    std::size_t
    bankBlocks() const
    {
        return (static_cast<std::size_t>(rows_) + kBlockRows - 1) /
               kBlockRows;
    }

    /** Blocks reserved, one per directory slot. */
    std::size_t maxBlocks() const { return banks_ * bankBlocks(); }

    std::size_t blockWords() const { return kBlockRows * chips_; }

    /** Block @p id, counting from 1. */
    std::uint32_t *
    block(std::uint32_t id) const
    {
        return data_ + static_cast<std::size_t>(id - 1) * blockWords();
    }

    /** The block at directory slot @p s, or nullptr if never written. */
    std::uint32_t *
    find(std::size_t s) const
    {
        const std::size_t page = s / kDirPage;
        if (((written_[page / 64] >> (page % 64)) & 1) == 0) {
            return nullptr;
        }
        const std::uint32_t id = dir_[s];
        return id != 0 ? block(id) : nullptr;
    }

    /** The block at directory slot @p s, handed out on first use. */
    std::uint32_t *
    touch(std::size_t s)
    {
        std::uint32_t *counts = find(s);
        return counts != nullptr ? counts : handOut(s);
    }

    /** Give slot @p s, which has no block yet, the next free one. */
    std::uint32_t *handOut(std::size_t s);

    unsigned chips_;
    unsigned banks_;
    std::uint32_t rows_;
    std::size_t size_;
    // The storage below is saved through find(), which skips blocks
    // never handed out; a restore rebuilds all of it.
    /** Blocks, maxBlocks() of them reserved. */
    std::uint32_t *data_; // mopac-lint: allow(serial-drift)
    /** Block id per (bank, row / kBlockRows); 0 when absent. */
    std::uint32_t *dir_; // mopac-lint: allow(serial-drift)
    /** One bit per directory page: set once anything was stored in it. */
    std::vector<std::uint64_t> written_; // mopac-lint: allow(serial-drift)
    /** Blocks handed out so far, from the front of data_. */
    std::uint32_t blocks_used_ = 0; // mopac-lint: allow(serial-drift)
};

} // namespace mopac

#endif // MOPAC_DRAM_ROW_TABLE_HH
