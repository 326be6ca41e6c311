/**
 * @file
 * RowTable implementation.
 */

#include "row_table.hh"

#include <algorithm>
#include <new>
#include <utility>

#include <sys/mman.h>

#include "common/serialize.hh"

namespace mopac
{

RowTable::RowTable(unsigned chips, unsigned banks, std::uint32_t rows)
    : chips_(chips), banks_(banks), rows_(rows),
      size_(static_cast<std::size_t>(chips) * banks * rows)
{
    MOPAC_ASSERT(chips > 0 && banks > 0 && rows > 0);
    // Anonymous private pages read as zero until first written, so
    // nothing is touched here.
    void *p = ::mmap(nullptr, size_ * sizeof(std::uint32_t),
                     PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
        throw std::bad_alloc();
    }
    data_ = static_cast<std::uint32_t *>(p);
    written_.assign((size_ + kGranule * 64 - 1) / (kGranule * 64), 0);
}

RowTable::~RowTable()
{
    if (data_ != nullptr) {
        ::munmap(data_, size_ * sizeof(std::uint32_t));
    }
}

RowTable::RowTable(RowTable &&other) noexcept
    : chips_(other.chips_), banks_(other.banks_), rows_(other.rows_),
      size_(other.size_), data_(std::exchange(other.data_, nullptr)),
      written_(std::move(other.written_))
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
    std::swap(written_, other.written_);
    return *this;
}

void
RowTable::clearRows(unsigned bank, std::uint32_t row_begin,
                    std::uint32_t row_end)
{
    MOPAC_ASSERT(row_begin <= row_end && row_end <= rows_);
    if (row_begin == row_end) {
        return;
    }
    // For one bank, rows [begin, end) x all chips are contiguous.
    std::size_t i = index(0, bank, row_begin);
    const std::size_t end =
        i + static_cast<std::size_t>(row_end - row_begin) * chips_;
    while (i < end) {
        const std::size_t stop =
            std::min(end, (i / kGranule + 1) * kGranule);
        if (written(i)) {
            std::fill(data_ + i, data_ + stop, 0u);
        }
        i = stop;
    }
}

void
RowTable::saveState(Serializer &ser) const
{
    ser.putVecLength(size_);
    for (unsigned chip = 0; chip < chips_; ++chip) {
        for (unsigned bank = 0; bank < banks_; ++bank) {
            for (std::uint32_t row = 0; row < rows_; ++row) {
                ser.putU32(entry(index(chip, bank, row)));
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
    // Drop every page: the range reads as fresh zero pages again.
    if (::madvise(data_, size_ * sizeof(std::uint32_t), MADV_DONTNEED) !=
        0) {
        std::fill(data_, data_ + size_, 0u);
    }
    std::fill(written_.begin(), written_.end(), 0);
    for (unsigned chip = 0; chip < chips_; ++chip) {
        for (unsigned bank = 0; bank < banks_; ++bank) {
            for (std::uint32_t row = 0; row < rows_; ++row) {
                const std::uint32_t v = des.getU32();
                if (v != 0) {
                    *touch(index(chip, bank, row), 1) = v;
                }
            }
        }
    }
}

} // namespace mopac
