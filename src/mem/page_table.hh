/**
 * @file
 * A generic single-level functional page table template.
 *
 * Instantiated three ways across the system:
 *   - guest process page tables (GVA -> GPA),
 *   - per-VM extended page tables (GPA -> HPA),
 *   - the single IO page table (IOVA -> HPA) that page table slicing
 *     partitions among virtual accelerators.
 */

#ifndef OPTIMUS_MEM_PAGE_TABLE_HH
#define OPTIMUS_MEM_PAGE_TABLE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "mem/address.hh"
#include "sim/logging.hh"

namespace optimus::mem {

/** Access permissions attached to each mapping. */
struct PagePerms
{
    bool readable = true;
    bool writable = true;
};

/**
 * Functional page table from address space From to address space To.
 *
 * Mappings live in dense leaves of 512 one-word entries, found through
 * a small open-addressed directory keyed by leaf number. The tables
 * map contiguous runs (a VM's RAM, a DMA region's 4 KiB pages), so
 * the leaves fill up and a lookup is one directory probe plus one
 * indexed load.
 */
template <typename From, typename To>
class PageTable
{
  public:
    struct Entry
    {
        To base;
        PagePerms perms;
    };

    explicit PageTable(std::uint64_t page_bytes = kPage4K)
        : _pageBytes(page_bytes)
    {
        OPTIMUS_ASSERT((page_bytes & (page_bytes - 1)) == 0,
                       "page size must be a power of two");
        OPTIMUS_ASSERT(page_bytes > kFlagMask,
                       "page size too small to hold the entry flags");
        while ((1ULL << _pageShift) < page_bytes)
            ++_pageShift;
    }

    std::uint64_t pageBytes() const { return _pageBytes; }

    /** Install a mapping; both addresses must be page aligned. */
    void
    map(From from, To to, PagePerms perms = PagePerms{})
    {
        OPTIMUS_ASSERT(from.pageOffset(_pageBytes) == 0 &&
                           to.pageOffset(_pageBytes) == 0,
                       "unaligned page mapping");
        std::uint64_t vpn = from.value() >> _pageShift;
        std::uint64_t &slot =
            leafFor(vpn / kLeafEntries)[vpn % kLeafEntries];
        if (!(slot & kPresent))
            ++_size;
        slot = to.value() | kPresent | (perms.readable ? kReadable : 0) |
               (perms.writable ? kWritable : 0);
    }

    /** Remove a mapping if present. */
    void
    unmap(From from)
    {
        std::uint64_t vpn = from.value() >> _pageShift;
        Leaf *leaf = findLeaf(vpn / kLeafEntries);
        if (leaf && ((*leaf)[vpn % kLeafEntries] & kPresent)) {
            (*leaf)[vpn % kLeafEntries] = 0;
            --_size;
        }
    }

    /** Look up the entry covering @p addr; nullopt on fault. */
    std::optional<Entry>
    lookup(From addr) const
    {
        std::uint64_t w = word(addr);
        if (!(w & kPresent))
            return std::nullopt;
        return Entry{To(w & ~kFlagMask), PagePerms{(w & kReadable) != 0,
                                                   (w & kWritable) != 0}};
    }

    /**
     * Translate a full address; nullopt on fault or (when @p write)
     * on a read-only mapping.
     */
    std::optional<To>
    translate(From addr, bool write = false) const
    {
        auto e = lookup(addr);
        if (!e)
            return std::nullopt;
        if (write && !e->perms.writable)
            return std::nullopt;
        if (!write && !e->perms.readable)
            return std::nullopt;
        return e->base + addr.pageOffset(_pageBytes);
    }

    std::size_t size() const { return _size; }

  private:
    /** An entry word: the page-aligned target base, with the flags in
     *  the low bits that the alignment leaves clear. 0 is unmapped. */
    static constexpr std::uint64_t kPresent = 1;
    static constexpr std::uint64_t kReadable = 2;
    static constexpr std::uint64_t kWritable = 4;
    static constexpr std::uint64_t kFlagMask = 7;
    static constexpr std::uint64_t kLeafEntries = 512;
    using Leaf = std::array<std::uint64_t, kLeafEntries>;

    struct DirSlot
    {
        std::uint64_t key = kEmpty;
        Leaf *leaf = nullptr;
    };
    /** Never a leaf number: with pages of at least 8 bytes, those
     *  stay below 2^52. */
    static constexpr std::uint64_t kEmpty = ~0ULL;

    std::size_t
    home(std::uint64_t key) const
    {
        // Fibonacci hashing: consecutive leaf numbers spread out.
        return static_cast<std::size_t>(
            (key * 0x9e3779b97f4a7c15ULL) >> (64 - _dirBits));
    }

    /** The leaf numbered @p key, or null if none is allocated. */
    Leaf *
    findLeaf(std::uint64_t key) const
    {
        if (_dir.empty())
            return nullptr;
        std::size_t mask = _dir.size() - 1;
        for (std::size_t i = home(key);; i = (i + 1) & mask) {
            if (_dir[i].key == key)
                return _dir[i].leaf;
            if (_dir[i].key == kEmpty)
                return nullptr;
        }
    }

    /** The entry word for @p addr (0 when unmapped). */
    std::uint64_t
    word(From addr) const
    {
        std::uint64_t vpn = addr.value() >> _pageShift;
        const Leaf *leaf = findLeaf(vpn / kLeafEntries);
        return leaf ? (*leaf)[vpn % kLeafEntries] : 0;
    }

    /** The leaf for @p key, allocated (all unmapped) on first use. */
    Leaf &
    leafFor(std::uint64_t key)
    {
        if (Leaf *leaf = findLeaf(key))
            return *leaf;
        // Keep the directory at most half full.
        if (2 * (_leaves.size() + 1) > _dir.size())
            growDirectory();
        _leaves.push_back(std::make_unique<Leaf>());
        Leaf *leaf = _leaves.back().get();
        insert(key, leaf);
        return *leaf;
    }

    void
    insert(std::uint64_t key, Leaf *leaf)
    {
        std::size_t mask = _dir.size() - 1;
        std::size_t i = home(key);
        while (_dir[i].key != kEmpty)
            i = (i + 1) & mask;
        _dir[i] = DirSlot{key, leaf};
    }

    void
    growDirectory()
    {
        std::vector<DirSlot> old;
        old.swap(_dir);
        _dirBits = old.empty() ? 3 : _dirBits + 1;
        _dir.assign(std::size_t{1} << _dirBits, DirSlot{});
        for (const DirSlot &d : old)
            if (d.key != kEmpty)
                insert(d.key, d.leaf);
    }

    std::uint64_t _pageBytes;
    unsigned _pageShift = 0;
    std::size_t _size = 0;
    unsigned _dirBits = 0;
    std::vector<DirSlot> _dir;
    std::vector<std::unique_ptr<Leaf>> _leaves;
};

using ProcessPageTable = PageTable<Gva, Gpa>;
using ExtendedPageTable = PageTable<Gpa, Hpa>;
using IoPageTable = PageTable<Iova, Hpa>;

} // namespace optimus::mem

#endif // OPTIMUS_MEM_PAGE_TABLE_HH
