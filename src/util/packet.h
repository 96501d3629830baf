/**
 * @file
 * Packet: the sole wire type accepted by host-to-device and
 * inter-application ports (paper §III-C). A Packet is an owned byte
 * buffer with a read cursor; typed data crosses these ports only via
 * explicit serialization to/from Packet.
 */

#ifndef BISCUIT_UTIL_PACKET_H_
#define BISCUIT_UTIL_PACKET_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "util/log.h"

namespace bisc {

/**
 * An owned, growable byte buffer with serialization helpers.
 *
 * Writes append at the end; reads consume from a cursor that starts at
 * offset zero. Packets are movable and cheaply swappable; copying is
 * allowed but explicit code should prefer moves (C++11 move semantics
 * are a stated design point of the Biscuit port model).
 */
class Packet
{
  public:
    Packet() = default;

    /** Construct from raw bytes. */
    Packet(const void *data, std::size_t size)
        : buf_(static_cast<const std::uint8_t *>(data),
               static_cast<const std::uint8_t *>(data) + size)
    {}

    /** Total payload size in bytes. */
    std::size_t size() const { return buf_.size(); }

    /** Bytes remaining to be read. */
    std::size_t remaining() const { return buf_.size() - cursor_; }

    /** True when the read cursor has consumed the whole payload. */
    bool exhausted() const { return cursor_ >= buf_.size(); }

    /** Raw payload pointer. */
    const std::uint8_t *data() const { return buf_.data(); }

    /** Reset the read cursor to the beginning. */
    void rewind() { cursor_ = 0; }

    /** Drop all contents. */
    void
    clear()
    {
        buf_.clear();
        cursor_ = 0;
    }

    /** Append raw bytes. */
    void
    putBytes(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        buf_.insert(buf_.end(), p, p + size);
    }

    /** Consume raw bytes; panics on underrun (a framing bug). */
    void
    getBytes(void *out, std::size_t size)
    {
        std::memcpy(out, take(size), size);
    }

    /**
     * Consume @p size bytes in place: a pointer to them inside the
     * payload, valid until the packet is next written or destroyed.
     * Panics on underrun (a framing bug).
     */
    const std::uint8_t *
    take(std::size_t size)
    {
        BISC_ASSERT(cursor_ + size <= buf_.size(),
                    "packet underrun: want ", size, " have ", remaining());
        const std::uint8_t *p = buf_.data() + cursor_;
        cursor_ += size;
        return p;
    }

    /** Replace the payload with a copy of @p size bytes; rewinds. */
    void
    assign(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        buf_.assign(p, p + size);
        cursor_ = 0;
    }

    /** Overwrite the value written at byte @p at (e.g. a count put
     *  as a placeholder before the items it counts). */
    template <typename T>
    void
    patch(std::size_t at, const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "patch() takes trivially copyable values");
        BISC_ASSERT(at + sizeof(T) <= buf_.size(),
                    "patch beyond payload: at ", at, " size ", size());
        std::memcpy(buf_.data() + at, &v, sizeof(T));
    }

    /** Append a trivially copyable value. */
    template <typename T>
    void
    put(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "use serialize() for non-trivial types");
        putBytes(&v, sizeof(T));
    }

    /** Consume a trivially copyable value. */
    template <typename T>
    T
    get()
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "use deserialize() for non-trivial types");
        T v;
        getBytes(&v, sizeof(T));
        return v;
    }

    /** Append a length-prefixed string. */
    void
    putString(const std::string &s)
    {
        put<std::uint32_t>(static_cast<std::uint32_t>(s.size()));
        putBytes(s.data(), s.size());
    }

    /** Consume a length-prefixed string. */
    std::string
    getString()
    {
        auto n = get<std::uint32_t>();
        std::string s(n, '\0');
        getBytes(s.data(), n);
        return s;
    }

    bool
    operator==(const Packet &other) const
    {
        return buf_ == other.buf_;
    }

  private:
    std::vector<std::uint8_t> buf_;
    std::size_t cursor_ = 0;
};

}  // namespace bisc

#endif  // BISCUIT_UTIL_PACKET_H_
