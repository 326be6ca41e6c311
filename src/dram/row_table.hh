/**
 * @file
 * Zero-on-demand per-row counter table.
 *
 * Both dense per-row arrays of a sub-channel -- the ground-truth
 * oracle (SecurityChecker) and the engines' PRAC counters
 * (PracCounters) -- are one uint32_t per (chip, bank, row): 8M words
 * at the default 4-chip geometry.  A short simulation writes only a
 * small share of those rows, so the table is backed by a private
 * anonymous mapping instead of a zero-filled vector: the kernel
 * materialises a page only on its first write.  Construction is
 * therefore O(1) host work and a System's resident set grows with the
 * rows it touches, not with the geometry.
 *
 * A bitmap records which 4 KiB granules have been written.  Reads of
 * an unwritten granule return 0 without touching memory, and the
 * first mutable access to a granule stores into it before anything
 * loads from it: a load first would map the shared zero page and the
 * store after it would fault a second time.
 *
 * Layout is chip-minor: the chips() counts of one (bank, row) are
 * adjacent, so a per-ACT update of every chip touches one cache
 * line.  The serialized form is chip-major, the order both arrays
 * were always checkpointed in, so snapshots do not depend on the
 * in-memory layout.
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
        return *touch(index(chip, bank, row), 1);
    }

    std::uint32_t
    at(unsigned chip, unsigned bank, std::uint32_t row) const
    {
        return entry(index(chip, bank, row));
    }

    /** The chips() adjacent counts of (bank, row), chip 0 first. */
    std::uint32_t *
    chipsOf(unsigned bank, std::uint32_t row)
    {
        return touch(index(0, bank, row), chips_);
    }

    /**
     * Zero rows [row_begin, row_end) of @p bank on every chip.
     * Granules never written are skipped, so a refresh sweep over
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
    /** Entries per tracked granule (4 KiB). */
    static constexpr std::size_t kGranule = 1024;

    std::size_t
    index(unsigned chip, unsigned bank, std::uint32_t row) const
    {
        MOPAC_ASSERT(chip < chips_ && bank < banks_ && row < rows_);
        return (static_cast<std::size_t>(bank) * rows_ + row) * chips_ +
               chip;
    }

    bool
    written(std::size_t i) const
    {
        const std::size_t g = i / kGranule;
        return (written_[g / 64] >> (g % 64)) & 1;
    }

    std::uint32_t
    entry(std::size_t i) const
    {
        return written(i) ? data_[i] : 0;
    }

    /** Entries [i, i + n), their granules marked written. */
    std::uint32_t *
    touch(std::size_t i, std::size_t n)
    {
        for (std::size_t g = i / kGranule; g <= (i + n - 1) / kGranule;
             ++g) {
            std::uint64_t &word = written_[g / 64];
            const std::uint64_t bit = std::uint64_t{1} << (g % 64);
            if ((word & bit) == 0) {
                // Unwritten, so all zero: a store materialises the
                // page in one fault.
                data_[g * kGranule] = 0;
                word |= bit;
            }
        }
        return data_ + i;
    }

    unsigned chips_;
    unsigned banks_;
    std::uint32_t rows_;
    std::size_t size_;
    // Both are saved through entry(), which skips unwritten granules.
    std::uint32_t *data_; // mopac-lint: allow(serial-drift)
    /** One bit per granule: set once anything was stored in it. */
    std::vector<std::uint64_t> written_; // mopac-lint: allow(serial-drift)
};

} // namespace mopac

#endif // MOPAC_DRAM_ROW_TABLE_HH
