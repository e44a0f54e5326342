/**
 * @file
 * The simulated memory system: 256 KB program ROM and 16 KB RAM with
 * single-cycle access (paper Section 5.1), plus access counters that
 * feed the energy model (every ROM/RAM read and write carries a
 * Cacti-derived energy cost, Chapter 6).
 *
 * The address map is the paper's, but the ROM's backing store holds
 * only the loaded image: a kernel is a few KB of the 256.  An access
 * that reaches past the image (still inside the ROM's range) grows it
 * zero-filled, so ROM above the program reads as zeros and a
 * fault-injection strike there stays visible to later fetches.
 */

#ifndef ULECC_SIM_MEMORY_HH
#define ULECC_SIM_MEMORY_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "base/error.hh"

namespace ulecc
{

/** Per-memory access counters consumed by the energy model. */
struct MemCounters
{
    uint64_t reads = 0;      ///< narrow (32-bit) reads
    uint64_t wideReads = 0;  ///< 128-bit line fills, mirrored from the I$
    uint64_t writes = 0;
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
    MemorySystem() : ram_(MemoryMap::ramSize, 0) {}

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
        if ((addr & 3) == 0 && uint64_t(addr) + 4 <= rom_.size()) {
            uint32_t v;
            std::memcpy(&v, &rom_[addr], 4);
            romFetch_.reads++;
            return v;
        }
        return fetchGeneral(addr);
    }

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
        if ((addr & 3) == 0 && uint64_t(addr) + 4 <= rom_.size()) {
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

    std::vector<uint8_t> rom_; ///< the loaded image (grown on demand)
    std::vector<uint8_t> ram_;
    MemCounters romFetch_;
    MemCounters romData_;
    MemCounters ramCnt_;
};

} // namespace ulecc

#endif // ULECC_SIM_MEMORY_HH
