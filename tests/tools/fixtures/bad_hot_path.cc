// Lint fixture: heap allocation inside `// mopac: hot-path`
// functions.  Every flagged line is one hot-alloc finding; the
// un-annotated sibling at the bottom makes the same calls cleanly.
#include <cstdint>
#include <vector>

using Cycle = std::uint64_t;

class Leaky
{
  public:
    // mopac: hot-path
    void
    tick(Cycle now)
    {
        log_.push_back(now);
        scratch_.resize(64);
        int *p = new int[8];
        delete[] p;
    }

    Cycle nextWakeAt() const { return 0; }

    // mopac: hot-path
    Cycle
    drain()
    {
        std::vector<Cycle> tmp;
        tmp.reserve(log_.size());
        return tmp.empty() ? 0 : tmp[0];
    }

    // Un-annotated: the same calls are fine here.
    void flush() { log_.push_back(0); }

  private:
    std::vector<Cycle> log_;
    std::vector<Cycle> scratch_;
};

// A page-mapped table built or resized per call is an allocation
// too (RowTable's mmap backing belongs in a constructor).
#include <sys/mman.h>

// mopac: hot-path
void *
remapEveryCall(void *table, std::size_t bytes)
{
    void *grown = ::mremap(table, bytes, 2 * bytes, MREMAP_MAYMOVE);
    ::munmap(grown, 2 * bytes);
    return ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
}
