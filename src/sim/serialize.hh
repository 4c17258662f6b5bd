/**
 * @file
 * Binary serialisation of RunSpecs and RunResults.
 *
 * The distributed experiment service moves finished results between
 * processes and machines: the on-disk content-addressed result store
 * persists them across runs, and the TCP worker protocol streams them
 * back to the coordinator. Both use the snapshots' state buffers
 * (common/state_buffer.hh): a tagged, length-prefixed concatenation
 * of fields, each record written by one serialize() body for both
 * directions. RunSpec::serialize, ThreadResult::serialize and
 * RunResult::serialize are defined in serialize.cc.
 *
 * Doubles are copied bit-for-bit, so a round-tripped RunResult
 * compares equal (operator==) to the original and re-emits
 * byte-identical JSON/CSV artifacts; that is what makes warm
 * store-backed reruns indistinguishable from the cold run that
 * populated the store.
 *
 * kResultFormatVersion names the layout. Both the .hsr file header and
 * the remote handshake's config echo carry it, so a stale store entry
 * or a mismatched worker build is rejected before any payload is
 * parsed.
 */

#ifndef HS_SIM_SERIALIZE_HH
#define HS_SIM_SERIALIZE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/state_buffer.hh"
#include "sim/results.hh"
#include "sim/run_spec.hh"

namespace hs {

/** Layout version of the serialised RunSpec/RunResult records and of
 *  the .hsr record around them. Bump on any field change; readers
 *  reject other versions. 2: the .hsr checksum covers the key echo.
 *  3: that checksum is checksum64(), not FNV-1a. */
constexpr uint32_t kResultFormatVersion = 3;

/**
 * FNV-1a 64-bit over an arbitrary byte range. The hash for addresses
 * and identities: canonical keys (keyHash(), RunSpec::hash()). Its
 * values are pinned by stores on disk.
 */
uint64_t fnv1a64(const uint8_t *data, size_t size,
                 uint64_t seed = 0xcbf29ce484222325ull);

/**
 * 64-bit integrity checksum over an arbitrary byte range: the sum
 * every record and shipped snapshot is checked with. Reads
 * 8-byte words (host order, little-endian like every format here)
 * into four independent multiply-xor lanes (the tail bytes and the
 * length are folded in last), so it runs at memory speed where
 * FNV-1a's one multiply per byte does not. Every
 * step is a bijection of the word it takes in, so any change confined
 * to one word — any single-bit flip — changes the sum.
 */
uint64_t checksum64(const uint8_t *data, size_t size);

/** Convenience: one whole RunResult as a standalone byte buffer. */
std::vector<uint8_t> encodeRunResult(const RunResult &result);

/** Inverse of encodeRunResult(). fatal() on malformed input — callers
 *  that must survive corruption (the disk store) verify a checksum
 *  first. */
RunResult decodeRunResult(std::span<const uint8_t> bytes);

} // namespace hs

#endif // HS_SIM_SERIALIZE_HH
