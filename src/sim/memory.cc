/**
 * @file
 * MemorySystem implementation.
 *
 * Every architectural access fault -- unmapped address, write to ROM,
 * range overrun, misaligned access -- raises UleccError(Errc::MemFault)
 * so a supervising harness (Pete::runChecked, the fault-campaign
 * driver) can classify it instead of aborting the process.
 */

#include "sim/memory.hh"

#include <cstdio>
#include <cstring>
#include <string>

namespace ulecc
{

namespace
{

[[noreturn]] void
memFault(const std::string &what, uint32_t addr)
{
    char hex[16];
    std::snprintf(hex, sizeof hex, "0x%08x", addr);
    throw UleccError(Errc::MemFault, what + " at " + hex);
}

void
checkAlign(uint32_t addr, uint32_t size, const char *what)
{
    if (addr & (size - 1))
        memFault(std::string("misaligned ") + what, addr);
}

} // namespace

void
MemorySystem::loadRom(const std::vector<uint32_t> &words)
{
    if (words.size() * 4 > rom_.size())
        throw UleccError(Errc::MemFault, "program too large for 256KB ROM");
    for (size_t i = 0; i < words.size(); ++i)
        std::memcpy(&rom_[4 * i], &words[i], 4);
    // ROM below the image is now initialised; the rest stays
    // unmaterialised until something actually reaches past the text.
    rom_.markWritten(words.size() * 4);
}

uint8_t *
MemorySystem::locate(uint32_t addr, uint32_t size, bool write)
{
    if (inRom(addr)) {
        if (write)
            memFault("write to ROM", addr);
        if (addr + size > MemoryMap::romSize)
            memFault("ROM access out of range", addr);
        // One-time zero-fill when an access reaches past the loaded
        // image (ROM above the program reads as zeros).
        if (addr + size > rom_.valid())
            rom_.materialize();
        return &rom_[addr];
    }
    if (inRam(addr)) {
        uint32_t off = addr - MemoryMap::ramBase;
        if (off + size > MemoryMap::ramSize)
            memFault("RAM access out of range", addr);
        return &ram_[off];
    }
    memFault("unmapped address", addr);
}

uint32_t
MemorySystem::fetchGeneral(uint32_t addr)
{
    checkAlign(addr, 4, "fetch");
    uint32_t v;
    std::memcpy(&v, locate(addr, 4, false), 4);
    romFetch_.reads++;
    return v;
}

void
MemorySystem::fetchLine(uint32_t addr, uint32_t out[4])
{
    checkAlign(addr, 16, "line fetch");
    std::memcpy(out, locate(addr, 16, false), 16);
    romFetch_.wideReads++;
}

uint32_t
MemorySystem::peek32General(uint32_t addr)
{
    checkAlign(addr, 4, "peek32");
    uint32_t v;
    std::memcpy(&v, locate(addr, 4, false), 4);
    return v;
}

void
MemorySystem::poke32(uint32_t addr, uint32_t value)
{
    checkAlign(addr, 4, "poke32");
    std::memcpy(locate(addr, 4, true), &value, 4);
}

void
MemorySystem::corrupt32(uint32_t addr, uint32_t mask)
{
    checkAlign(addr, 4, "corrupt32");
    // locate() with write=false so the backdoor reaches ROM too.
    uint8_t *p = locate(addr, 4, false);
    uint32_t v;
    std::memcpy(&v, p, 4);
    v ^= mask;
    std::memcpy(p, &v, 4);
}

uint32_t
MemorySystem::read32General(uint32_t addr)
{
    checkAlign(addr, 4, "read32");
    uint32_t v;
    std::memcpy(&v, locate(addr, 4, false), 4);
    (inRom(addr) ? romData_ : ramCnt_).reads++;
    return v;
}

uint32_t
MemorySystem::read8(uint32_t addr)
{
    uint8_t v = *locate(addr, 1, false);
    (inRom(addr) ? romData_ : ramCnt_).reads++;
    return v;
}

uint32_t
MemorySystem::read16(uint32_t addr)
{
    checkAlign(addr, 2, "read16");
    uint16_t v;
    std::memcpy(&v, locate(addr, 2, false), 2);
    (inRom(addr) ? romData_ : ramCnt_).reads++;
    return v;
}

void
MemorySystem::write32General(uint32_t addr, uint32_t value)
{
    checkAlign(addr, 4, "write32");
    std::memcpy(locate(addr, 4, true), &value, 4);
    ramCnt_.writes++;
}

void
MemorySystem::write8(uint32_t addr, uint32_t value)
{
    *locate(addr, 1, true) = static_cast<uint8_t>(value);
    ramCnt_.writes++;
}

void
MemorySystem::write16(uint32_t addr, uint32_t value)
{
    checkAlign(addr, 2, "write16");
    uint16_t v = static_cast<uint16_t>(value);
    std::memcpy(locate(addr, 2, true), &v, 2);
    ramCnt_.writes++;
}

} // namespace ulecc
