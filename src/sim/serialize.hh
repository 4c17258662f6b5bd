/**
 * @file
 * Binary serialisation of RunSpecs and RunResults.
 *
 * The distributed experiment service moves finished results between
 * processes and machines: the on-disk content-addressed result store
 * persists them across runs, and the TCP worker protocol streams them
 * back to the coordinator. Both reuse the StateBuffer machinery the
 * snapshot subsystem already proves out — a tagged, length-prefixed
 * concatenation of POD fields — extended with length-prefixed strings
 * for the non-POD members (program names, histogram names, assembly
 * text).
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

/** Append @p spec to @p w ("SPEC"-tagged section). */
void saveRunSpec(StateWriter &w, const RunSpec &spec);

/** Read a RunSpec written by saveRunSpec(). */
RunSpec loadRunSpec(StateReader &r);

/** Append @p result to @p w ("RRES"-tagged section). */
void saveRunResult(StateWriter &w, const RunResult &result);

/** Read a RunResult written by saveRunResult(). */
RunResult loadRunResult(StateReader &r);

/** Convenience: one whole RunResult as a standalone byte buffer. */
std::vector<uint8_t> encodeRunResult(const RunResult &result);

/** Inverse of encodeRunResult(). fatal() on malformed input — callers
 *  that must survive corruption (the disk store) verify a checksum
 *  first. */
RunResult decodeRunResult(std::span<const uint8_t> bytes);

} // namespace hs

#endif // HS_SIM_SERIALIZE_HH
