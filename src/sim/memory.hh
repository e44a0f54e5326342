/**
 * @file
 * The simulated memory system: 256 KB program ROM and 16 KB RAM with
 * single-cycle access (paper Section 5.1), plus access counters that
 * feed the energy model (every ROM/RAM read and write carries a
 * Cacti-derived energy cost, Chapter 6).
 */

#ifndef ULECC_SIM_MEMORY_HH
#define ULECC_SIM_MEMORY_HH

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "base/error.hh"

namespace ulecc
{

/**
 * Byte buffer with zero-on-demand semantics.  Reads are only valid
 * below the watermark set by zeroTo(); materialize() zero-fills the
 * remainder once, on first use.
 *
 * Rationale: a MemorySystem is built per simulated kernel (the
 * design-space sweeps build thousands), and eagerly clearing the
 * 256 KB ROM dominated short kernels' wall time even though a program
 * occupies -- and almost always stays within -- a few KB of it.  The
 * ROM therefore starts uninitialised with the watermark at the loaded
 * image's end, and only an access beyond the image pays the one-time
 * fill.  (calloc cannot deliver this: glibc's adaptive mmap threshold
 * sends repeated 256 KB allocations to the heap, where calloc must
 * memset; direct mmap's syscall pair is itself microseconds on some
 * hosts.)
 */
class LazyZeroBytes
{
  public:
    explicit LazyZeroBytes(size_t size)
        : data_(static_cast<uint8_t *>(std::malloc(size))), size_(size)
    {
        if (!data_)
            throw std::bad_alloc();
    }

    ~LazyZeroBytes() { std::free(data_); }

    LazyZeroBytes(const LazyZeroBytes &) = delete;
    LazyZeroBytes &operator=(const LazyZeroBytes &) = delete;

    LazyZeroBytes(LazyZeroBytes &&other) noexcept
        : data_(other.data_), size_(other.size_), valid_(other.valid_)
    {
        other.data_ = nullptr;
        other.size_ = 0;
        other.valid_ = 0;
    }

    LazyZeroBytes &
    operator=(LazyZeroBytes &&other) noexcept
    {
        if (this != &other) {
            std::free(data_);
            data_ = other.data_;
            size_ = other.size_;
            valid_ = other.valid_;
            other.data_ = nullptr;
            other.size_ = 0;
            other.valid_ = 0;
        }
        return *this;
    }

    uint8_t &operator[](size_t i) { return data_[i]; }
    const uint8_t &operator[](size_t i) const { return data_[i]; }
    size_t size() const { return size_; }

    /** First byte not yet guaranteed zero-or-written. */
    size_t valid() const { return valid_; }

    /** Declares [0, end) initialised (zeroing [valid, end) if the
     *  caller has not already written it). */
    void
    zeroTo(size_t end)
    {
        if (end > valid_) {
            std::memset(data_ + valid_, 0, end - valid_);
            valid_ = end;
        }
    }

    /** Raises the watermark over a range the caller just wrote. */
    void
    markWritten(size_t end)
    {
        if (end > valid_)
            valid_ = end;
    }

    /** Zero-fills everything above the watermark (one-time). */
    void
    materialize()
    {
        if (valid_ < size_) {
            std::memset(data_ + valid_, 0, size_ - valid_);
            valid_ = size_;
        }
    }

  private:
    uint8_t *data_ = nullptr;
    size_t size_ = 0;
    size_t valid_ = 0; ///< bytes below this are zeroed or written
};

/** Per-memory access counters consumed by the energy model. */
struct MemCounters
{
    uint64_t reads = 0;      ///< narrow (32-bit) reads
    uint64_t wideReads = 0;  ///< 128-bit cache-line reads (I$ fills)
    uint64_t writes = 0;

    void
    reset()
    {
        reads = wideReads = writes = 0;
    }
};

/** Simulated memory layout constants. */
struct MemoryMap
{
    static constexpr uint32_t romBase = 0x00000000;
    static constexpr uint32_t romSize = 256 * 1024;
    static constexpr uint32_t ramBase = 0x10000000;
    static constexpr uint32_t ramSize = 16 * 1024;
};

/** ROM + RAM with byte addressing and access accounting. */
class MemorySystem
{
  public:
    MemorySystem()
        : rom_(MemoryMap::romSize), ram_(MemoryMap::ramSize)
    {
        // RAM is small and accessed scattershot: zero it eagerly.
        // ROM stays unmaterialised beyond the loaded image; accesses
        // past the watermark take the general paths, which zero-fill
        // the remainder once (LazyZeroBytes::materialize).
        ram_.materialize();
    }

    /** Loads a program image into ROM starting at address 0. */
    void loadRom(const std::vector<uint32_t> &words);

    /**
     * Instruction fetch (counted separately from data reads).
     *
     * The aligned in-ROM case -- every fetch of a running program --
     * is inlined; anything else (a wild pc) takes the general path,
     * which raises the fault.  Same split for read32/write32 below:
     * the inline branch handles exactly the accesses that cannot
     * fault, so counters and fault behaviour are identical to the
     * general path.
     */
    uint32_t
    fetch(uint32_t addr)
    {
        if ((addr & 3) == 0 && uint64_t(addr) + 4 <= rom_.valid()) {
            uint32_t v;
            std::memcpy(&v, &rom_[addr], 4);
            romFetch_.reads++;
            return v;
        }
        return fetchGeneral(addr);
    }

    /** Wide 128-bit fetch for cache fills (counts one wide read). */
    void fetchLine(uint32_t addr, uint32_t out[4]);

    /** Data read (32-bit). */
    uint32_t
    read32(uint32_t addr)
    {
        if ((addr & 3) == 0 && inRam(addr)) {
            uint32_t v;
            std::memcpy(&v, &ram_[addr - MemoryMap::ramBase], 4);
            ramCnt_.reads++;
            return v;
        }
        return read32General(addr);
    }

    /** Functional peek (no access counting; cache-served fetches). */
    uint32_t
    peek32(uint32_t addr)
    {
        if ((addr & 3) == 0 && uint64_t(addr) + 4 <= rom_.valid()) {
            uint32_t v;
            std::memcpy(&v, &rom_[addr], 4);
            return v;
        }
        return peek32General(addr);
    }

    /** Functional poke (no access counting; testbench data setup). */
    void poke32(uint32_t addr, uint32_t value);

    /**
     * Fault-injection backdoor: XORs @p mask into the word at @p addr.
     * Unlike the architectural accessors this reaches ROM as well as
     * RAM and performs no access counting -- it models a particle
     * strike, not a program action.
     */
    void corrupt32(uint32_t addr, uint32_t mask);

    /** Data read (8-bit, zero-extended). */
    uint32_t read8(uint32_t addr);

    /** Data read (16-bit, zero-extended). */
    uint32_t read16(uint32_t addr);

    /** Data write (32-bit); ROM writes are rejected. */
    void
    write32(uint32_t addr, uint32_t value)
    {
        if ((addr & 3) == 0 && inRam(addr)) {
            std::memcpy(&ram_[addr - MemoryMap::ramBase], &value, 4);
            ramCnt_.writes++;
            return;
        }
        write32General(addr, value);
    }

    void write8(uint32_t addr, uint32_t value);
    void write16(uint32_t addr, uint32_t value);

    /** True if @p addr lies in RAM. */
    static bool
    inRam(uint32_t addr)
    {
        return addr >= MemoryMap::ramBase
            && addr < MemoryMap::ramBase + MemoryMap::ramSize;
    }

    /** True if @p addr lies in ROM. */
    static bool
    inRom(uint32_t addr)
    {
        return addr < MemoryMap::romSize;
    }

    MemCounters &romFetchCounters() { return romFetch_; }
    MemCounters &romDataCounters() { return romData_; }
    MemCounters &ramCounters() { return ramCnt_; }
    const MemCounters &romFetchCounters() const { return romFetch_; }
    const MemCounters &romDataCounters() const { return romData_; }
    const MemCounters &ramCounters() const { return ramCnt_; }

  private:
    uint8_t *locate(uint32_t addr, uint32_t size, bool write);

    /** Out-of-line continuations of the inline accessors above: the
     *  cases that can fault (ROM data, unmapped, misaligned). */
    uint32_t fetchGeneral(uint32_t addr);
    uint32_t peek32General(uint32_t addr);
    uint32_t read32General(uint32_t addr);
    void write32General(uint32_t addr, uint32_t value);

    LazyZeroBytes rom_;
    LazyZeroBytes ram_;
    MemCounters romFetch_;
    MemCounters romData_;
    MemCounters ramCnt_;
};

} // namespace ulecc

#endif // ULECC_SIM_MEMORY_HH
