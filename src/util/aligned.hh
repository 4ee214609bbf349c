/**
 * @file
 * Minimal over-aligned allocator for the simulation arenas. The wide
 * (multi-word-per-line) kernels read and write whole lane blocks at a
 * time; 64-byte alignment keeps every block on one cache line and
 * lets the 256/512-bit kernels use aligned-friendly access patterns.
 *
 * Arenas of kMapBytes or more (traces, a large netlist's replay
 * scratch) are mapped straight from the kernel and unmapped on free.
 * Through malloc, freeing one would raise glibc's dynamic mmap and
 * trim thresholds, after which every arena may keep several MiB of
 * freed memory resident: a campaign service that builds and drops
 * such arenas per job would see its peak RSS ratchet up with the
 * timing of its threads.
 */

#ifndef SCAL_UTIL_ALIGNED_HH
#define SCAL_UTIL_ALIGNED_HH

#include <cstddef>
#include <new>

#include <sys/mman.h>

namespace scal::util
{

template <class T, std::size_t Align = 64>
struct AlignedAllocator
{
    static_assert(Align >= alignof(T) && (Align & (Align - 1)) == 0,
                  "alignment must be a power of two >= alignof(T)");

    using value_type = T;

    AlignedAllocator() noexcept = default;
    template <class U>
    AlignedAllocator(const AlignedAllocator<U, Align> &) noexcept
    {
    }

    template <class U>
    struct rebind
    {
        using other = AlignedAllocator<U, Align>;
    };

    /** Arenas at least this large bypass malloc (see file comment);
     *  a mapping is page-aligned, which covers any Align here. */
    static constexpr std::size_t kMapBytes = std::size_t{256} << 10;

    T *
    allocate(std::size_t n)
    {
        if (n * sizeof(T) >= kMapBytes) {
            void *p = ::mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
            if (p == MAP_FAILED)
                throw std::bad_alloc();
            return static_cast<T *>(p);
        }
        return static_cast<T *>(::operator new(
            n * sizeof(T), std::align_val_t{Align}));
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        if (n * sizeof(T) >= kMapBytes)
            ::munmap(p, n * sizeof(T));
        else
            ::operator delete(p, n * sizeof(T), std::align_val_t{Align});
    }

    friend bool
    operator==(const AlignedAllocator &, const AlignedAllocator &)
    {
        return true;
    }
    friend bool
    operator!=(const AlignedAllocator &, const AlignedAllocator &)
    {
        return false;
    }
};

} // namespace scal::util

#endif // SCAL_UTIL_ALIGNED_HH
