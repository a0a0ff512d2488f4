/**
 * @file
 * The shared wire codec of the wmrace on-disk containers: varint
 * encoder/decoder, the MemOp encoding (WMRSEG01 sync events, the
 * serve protocol) and the bitset decoder of the read-only WMRTRC01
 * container.  Everything here is header-only and allocation-light;
 * the containers themselves define file layout and error policy.
 *
 * Error policy: decoders throw wire::ParseFailure on malformed input.
 * Container entry points catch it at their boundary and surface a
 * recoverable error — no fatal(), no abort.
 */

#ifndef WMR_TRACE_WIRE_CODEC_HH
#define WMR_TRACE_WIRE_CODEC_HH

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/dense_bitset.hh"
#include "sim/mem_op.hh"

namespace wmr::wire {

/**
 * Internal control-flow exception of the parse paths.  Thrown where
 * legacy code called fatal() and caught at each container's
 * try-deserialize boundary, so malformed input is a recoverable
 * per-file failure.
 */
struct ParseFailure
{
    std::string message;
};

[[noreturn]] inline void
parseFail(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

[[noreturn]] inline void
parseFail(const char *fmt, ...)
{
    char buf[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    throw ParseFailure{buf};
}

/** Growable varint encoder. */
class Encoder
{
  public:
    void
    u64(std::uint64_t v)
    {
        while (v >= 0x80) {
            bytes_.push_back(static_cast<std::uint8_t>(v) | 0x80);
            v >>= 7;
        }
        bytes_.push_back(static_cast<std::uint8_t>(v));
    }

    void
    i64(std::int64_t v)
    {
        // zigzag
        u64((static_cast<std::uint64_t>(v) << 1) ^
            static_cast<std::uint64_t>(v >> 63));
    }

    void
    raw(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        bytes_.insert(bytes_.end(), p, p + n);
    }

    const std::uint8_t *data() const { return bytes_.data(); }
    std::size_t size() const { return bytes_.size(); }
    void clear() { bytes_.clear(); }

    std::vector<std::uint8_t> take() { return std::move(bytes_); }

  private:
    std::vector<std::uint8_t> bytes_;
};

/** Bounds-checked varint decoder over a borrowed byte range. */
class Decoder
{
  public:
    Decoder(const std::uint8_t *data, std::size_t n)
        : data_(data), size_(n)
    {
    }

    explicit Decoder(const std::vector<std::uint8_t> &bytes)
        : Decoder(bytes.data(), bytes.size())
    {
    }

    std::uint64_t
    u64()
    {
        std::uint64_t v = 0;
        int shift = 0;
        while (true) {
            if (pos_ >= size_)
                parseFail("trace file truncated at byte %zu", pos_);
            const std::uint8_t b = data_[pos_++];
            v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
            if (!(b & 0x80))
                return v;
            shift += 7;
            if (shift > 63)
                parseFail("trace file: varint overflow at byte %zu",
                          pos_);
        }
    }

    std::int64_t
    i64()
    {
        const std::uint64_t z = u64();
        return static_cast<std::int64_t>(z >> 1) ^
               -static_cast<std::int64_t>(z & 1);
    }

    void
    raw(void *out, std::size_t n)
    {
        if (pos_ + n > size_)
            parseFail("trace file truncated at byte %zu", pos_);
        std::memcpy(out, data_ + pos_, n);
        pos_ += n;
    }

    bool done() const { return pos_ == size_; }

    /** Bytes left — used to sanity-check element counts. */
    std::size_t remaining() const { return size_ - pos_; }

    /** parseFail() unless @p count elements can possibly fit. */
    void
    checkCount(std::uint64_t count, const char *what) const
    {
        if (count > remaining())
            parseFail("trace file: %s count %llu exceeds remaining "
                      "%zu bytes",
                      what, static_cast<unsigned long long>(count),
                      remaining());
    }

  private:
    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/** The bitset encoding of the legacy WMRTRC01 container: SPARSE
 *  (delta-coded set-bit indices) or DENSE (raw words). */
inline DenseBitset
decodeBitset(Decoder &dec)
{
    constexpr std::uint64_t kMaxBits = 1ull << 28; // 32 MiB of bits
    const std::uint64_t nbits = dec.u64();
    if (nbits > kMaxBits)
        parseFail("trace file: bitset universe %llu too large",
                  static_cast<unsigned long long>(nbits));
    const bool sparse = dec.u64() != 0;
    if (sparse) {
        DenseBitset bs(nbits);
        const std::uint64_t count = dec.u64();
        dec.checkCount(count, "sparse bitset");
        std::uint64_t idx = 0;
        for (std::uint64_t i = 0; i < count; ++i) {
            idx += dec.u64();
            if (idx >= nbits)
                parseFail("trace file: bitset index %llu out of "
                          "range",
                          static_cast<unsigned long long>(idx));
            bs.set(idx);
        }
        return bs;
    }
    const std::uint64_t nwords = dec.u64();
    dec.checkCount(nwords, "bitset words");
    if (nwords * 64 < nbits)
        parseFail("trace file: bitset words underflow universe");
    std::vector<std::uint64_t> words(nwords);
    for (auto &w : words)
        w = dec.u64();
    return DenseBitset::fromWords(std::move(words), nbits);
}

inline void
encodeMemOp(Encoder &enc, const MemOp &op)
{
    enc.u64(op.id);
    enc.u64(op.proc);
    enc.u64(op.poIndex);
    enc.u64(op.pc);
    enc.u64(op.kind == OpKind::Write ? 1 : 0);
    enc.u64((op.sync ? 1u : 0u) | (op.acquire ? 2u : 0u) |
            (op.release ? 4u : 0u) | (op.stale ? 8u : 0u) |
            (op.divergent ? 16u : 0u) | (op.taintedValue ? 32u : 0u));
    enc.u64(op.addr);
    enc.i64(op.value);
    enc.u64(op.observedWrite);
    enc.u64(op.tick);
}

inline MemOp
decodeMemOp(Decoder &dec)
{
    MemOp op;
    op.id = dec.u64();
    // Bound the narrowing casts: a corrupt record must yield a parse
    // error, not a silently truncated processor id or address.
    const std::uint64_t rawProc = dec.u64();
    if (rawProc > kNoProc)
        parseFail("trace file: op processor %llu too large",
                  static_cast<unsigned long long>(rawProc));
    op.proc = static_cast<ProcId>(rawProc);
    op.poIndex = static_cast<std::uint32_t>(dec.u64());
    op.pc = static_cast<std::uint32_t>(dec.u64());
    op.kind = dec.u64() ? OpKind::Write : OpKind::Read;
    const std::uint64_t flags = dec.u64();
    op.sync = flags & 1;
    op.acquire = flags & 2;
    op.release = flags & 4;
    op.stale = flags & 8;
    op.divergent = flags & 16;
    op.taintedValue = flags & 32;
    const std::uint64_t rawAddr = dec.u64();
    if (rawAddr > (1ull << 28))
        parseFail("trace file: op address %llu too large",
                  static_cast<unsigned long long>(rawAddr));
    op.addr = static_cast<Addr>(rawAddr);
    op.value = dec.i64();
    op.observedWrite = dec.u64();
    op.tick = dec.u64();
    return op;
}

} // namespace wmr::wire

#endif // WMR_TRACE_WIRE_CODEC_HH
