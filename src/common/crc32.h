#ifndef XORATOR_COMMON_CRC32_H_
#define XORATOR_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace xorator {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, init and final XOR
/// 0xFFFFFFFF).
///
/// Used to checksum storage pages and WAL records. `seed` allows chaining:
/// Crc32(b, nb, Crc32(a, na)) == Crc32(concat(a, b)).
///
/// On x86-64 CPUs with PCLMULQDQ (checked once at run time), inputs of 64
/// bytes or more are folded 64 bytes at a time with carry-less multiply and
/// Barrett-reduced to 32 bits; an 8 KB page takes well under a microsecond.
/// A bytewise table loop checksums the last <16 bytes, every shorter input,
/// and every input on other CPUs. Every path gives the same value.
uint32_t Crc32(const void* data, size_t length, uint32_t seed = 0);

}  // namespace xorator

#endif  // XORATOR_COMMON_CRC32_H_
