/**
 * @file
 * RowTable implementation.
 */

#include "row_table.hh"

#include <algorithm>
#include <limits>
#include <new>
#include <utility>

#include <sys/mman.h>

#include "common/serialize.hh"

namespace mopac
{

namespace
{

/**
 * @p words of fresh zero pages.  Anonymous private pages read as zero
 * until first written, so nothing is touched here.
 */
std::uint32_t *
mapZeroed(std::size_t words)
{
    void *p = ::mmap(nullptr, words * sizeof(std::uint32_t),
                     PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
        throw std::bad_alloc();
    }
    return static_cast<std::uint32_t *>(p);
}

/** Return the first @p words of @p p to fresh zero pages. */
void
dropPages(std::uint32_t *p, std::size_t words)
{
    if (::madvise(p, words * sizeof(std::uint32_t), MADV_DONTNEED) != 0) {
        std::fill_n(p, words, 0u);
    }
}

} // namespace

RowTable::RowTable(unsigned chips, unsigned banks, std::uint32_t rows)
    : chips_(chips), banks_(banks), rows_(rows),
      size_(static_cast<std::size_t>(chips) * banks * rows)
{
    MOPAC_ASSERT(chips > 0 && banks > 0 && rows > 0);
    MOPAC_ASSERT(maxBlocks() < std::numeric_limits<std::uint32_t>::max());
    dir_ = mapZeroed(maxBlocks());
    try {
        data_ = mapZeroed(maxBlocks() * blockWords());
    } catch (const std::bad_alloc &) {
        ::munmap(dir_, maxBlocks() * sizeof(std::uint32_t));
        throw;
    }
    written_.assign((maxBlocks() + kDirPage * 64 - 1) / (kDirPage * 64),
                    0);
}

RowTable::~RowTable()
{
    if (data_ != nullptr) {
        ::munmap(data_, maxBlocks() * blockWords() * sizeof(std::uint32_t));
        ::munmap(dir_, maxBlocks() * sizeof(std::uint32_t));
    }
}

RowTable::RowTable(RowTable &&other) noexcept
    : chips_(other.chips_), banks_(other.banks_), rows_(other.rows_),
      size_(other.size_), data_(std::exchange(other.data_, nullptr)),
      dir_(std::exchange(other.dir_, nullptr)),
      written_(std::move(other.written_)), blocks_used_(other.blocks_used_)
{
}

RowTable &
RowTable::operator=(RowTable &&other) noexcept
{
    std::swap(chips_, other.chips_);
    std::swap(banks_, other.banks_);
    std::swap(rows_, other.rows_);
    std::swap(size_, other.size_);
    std::swap(data_, other.data_);
    std::swap(dir_, other.dir_);
    std::swap(written_, other.written_);
    std::swap(blocks_used_, other.blocks_used_);
    return *this;
}

std::uint32_t *
RowTable::handOut(std::size_t s)
{
    const std::size_t page = s / kDirPage;
    std::uint64_t &word = written_[page / 64];
    const std::uint64_t bit = std::uint64_t{1} << (page % 64);
    if ((word & bit) == 0) {
        // Unwritten, so all zero: a store materialises the page in one
        // fault.
        dir_[page * kDirPage] = 0;
        word |= bit;
    }
    dir_[s] = ++blocks_used_;
    // A fresh block is zero; storing it whole first maps each page it
    // spans in one fault.
    std::fill_n(block(blocks_used_), blockWords(), 0u);
    return block(blocks_used_);
}

void
RowTable::clearRows(unsigned bank, std::uint32_t row_begin,
                    std::uint32_t row_end)
{
    MOPAC_ASSERT(row_begin <= row_end && row_end <= rows_);
    for (std::uint32_t row = row_begin; row < row_end;) {
        // Rows [row, stop) share one block.
        const std::size_t block_end =
            (row / kBlockRows + 1) * std::size_t{kBlockRows};
        const std::uint32_t stop =
            block_end < row_end ? static_cast<std::uint32_t>(block_end)
                                : row_end;
        if (std::uint32_t *counts = find(slot(0, bank, row))) {
            std::fill_n(counts + offset(0, row),
                        static_cast<std::size_t>(stop - row) * chips_, 0u);
        }
        row = stop;
    }
}

void
RowTable::saveState(Serializer &ser) const
{
    ser.putVecLength(size_);
    for (unsigned chip = 0; chip < chips_; ++chip) {
        for (unsigned bank = 0; bank < banks_; ++bank) {
            for (std::uint32_t row = 0; row < rows_; row += kBlockRows) {
                const std::uint32_t *counts = find(slot(chip, bank, row));
                const std::uint32_t n = std::min(kBlockRows, rows_ - row);
                for (std::uint32_t k = 0; k < n; ++k) {
                    ser.putU32(counts != nullptr
                                   ? counts[offset(chip, row + k)]
                                   : 0);
                }
            }
        }
    }
}

void
RowTable::loadState(Deserializer &des)
{
    // getVecLength has checked that every element is in the payload,
    // so no read below can throw with the table half-written.
    if (des.getVecLength(sizeof(std::uint32_t)) != size_) {
        throw SerializeError("row table size mismatch");
    }
    // Drop every page: both ranges read as fresh zero pages again and
    // blocks are handed out from the front once more.
    dropPages(data_, blocks_used_ * blockWords());
    dropPages(dir_, maxBlocks());
    std::fill(written_.begin(), written_.end(), 0);
    blocks_used_ = 0;
    for (unsigned chip = 0; chip < chips_; ++chip) {
        for (unsigned bank = 0; bank < banks_; ++bank) {
            for (std::uint32_t row = 0; row < rows_; ++row) {
                const std::uint32_t v = des.getU32();
                if (v != 0) {
                    at(chip, bank, row) = v;
                }
            }
        }
    }
}

} // namespace mopac
