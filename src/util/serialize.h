/**
 * @file
 * Serialization traits mapping C++ values to/from Packet.
 *
 * The paper (§III-C) requires every datum crossing a host-to-device or
 * inter-application port to be (de)serializable. Wire<T> provides that
 * mapping for arithmetic types, std::string, std::pair, std::tuple and
 * std::vector compositions thereof; user types opt in by specializing
 * Wire<T> or by providing toPacket()/fromPacket() members.
 */

#ifndef BISCUIT_UTIL_SERIALIZE_H_
#define BISCUIT_UTIL_SERIALIZE_H_

#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/packet.h"

namespace bisc {

template <typename T, typename Enable = void>
struct Wire;

/** Detect a Wire<T> specialization. */
template <typename T, typename = void>
struct IsSerializable : std::false_type {};

template <typename T>
struct IsSerializable<
    T, std::void_t<decltype(Wire<T>::put(std::declval<Packet &>(),
                                         std::declval<const T &>()))>>
    : std::true_type {};

/** Arithmetic and enum types are serialized as raw little-endian bytes. */
template <typename T>
struct Wire<T, std::enable_if_t<std::is_arithmetic_v<T> ||
                                std::is_enum_v<T>>>
{
    static void put(Packet &p, const T &v) { p.put<T>(v); }
    static void get(Packet &p, T &v) { v = p.get<T>(); }
};

template <>
struct Wire<std::string>
{
    static void put(Packet &p, const std::string &v) { p.putString(v); }
    static void get(Packet &p, std::string &v) { v = p.getString(); }
};

/** Packets nest as length-prefixed blobs. */
template <>
struct Wire<Packet>
{
    static void
    put(Packet &p, const Packet &v)
    {
        p.put<std::uint32_t>(static_cast<std::uint32_t>(v.size()));
        p.putBytes(v.data(), v.size());
    }

    static void
    get(Packet &p, Packet &v)
    {
        auto n = p.get<std::uint32_t>();
        v.assign(p.take(n), n);
    }
};

template <typename A, typename B>
struct Wire<std::pair<A, B>,
            std::enable_if_t<IsSerializable<A>::value &&
                             IsSerializable<B>::value>>
{
    static void
    put(Packet &p, const std::pair<A, B> &v)
    {
        Wire<A>::put(p, v.first);
        Wire<B>::put(p, v.second);
    }

    static void
    get(Packet &p, std::pair<A, B> &v)
    {
        Wire<A>::get(p, v.first);
        Wire<B>::get(p, v.second);
    }
};

template <typename... Ts>
struct Wire<std::tuple<Ts...>,
            std::enable_if_t<(IsSerializable<Ts>::value && ...)>>
{
    static void
    put(Packet &p, const std::tuple<Ts...> &v)
    {
        std::apply([&](const Ts &...xs) { (Wire<Ts>::put(p, xs), ...); },
                   v);
    }

    static void
    get(Packet &p, std::tuple<Ts...> &v)
    {
        std::apply([&](Ts &...xs) { (Wire<Ts>::get(p, xs), ...); }, v);
    }
};

template <typename T>
struct Wire<std::vector<T>, std::enable_if_t<IsSerializable<T>::value>>
{
    static void
    put(Packet &p, const std::vector<T> &v)
    {
        p.put<std::uint32_t>(static_cast<std::uint32_t>(v.size()));
        for (const auto &x : v)
            Wire<T>::put(p, x);
    }

    static void
    get(Packet &p, std::vector<T> &v)
    {
        auto n = p.get<std::uint32_t>();
        v.clear();
        v.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) {
            T x;
            Wire<T>::get(p, x);
            v.push_back(std::move(x));
        }
    }
};

/** Serialize @p v into a fresh Packet. */
template <typename T>
Packet
serialize(const T &v)
{
    Packet p;
    Wire<T>::put(p, v);
    return p;
}

/** Deserialize a T from @p p (consuming from its read cursor). */
template <typename T>
T
deserialize(Packet &p)
{
    T v;
    Wire<T>::get(p, v);
    return v;
}

/**
 * How a value crosses a packet port (host-to-device, device-to-host,
 * inter-application): serialized into a fresh Packet, which the link
 * charges at its size.
 */
template <typename T>
struct PortWire
{
    static Packet pack(T &v) { return serialize(v); }
    static std::size_t bytes(const Packet &p) { return p.size(); }
    static void unpack(Packet &p, T &v) { v = deserialize<T>(p); }
};

/**
 * A Packet crosses as itself: moved, not nested into a second Packet,
 * so its bytes are never copied on the way. The link still charges
 * the 4-byte length prefix the nested form would carry, and the
 * receiver reads it from the start, as it would a nested copy.
 */
template <>
struct PortWire<Packet>
{
    static Packet pack(Packet &v) { return std::move(v); }

    static std::size_t
    bytes(const Packet &p)
    {
        return p.size() + sizeof(std::uint32_t);
    }

    static void
    unpack(Packet &p, Packet &v)
    {
        v = std::move(p);
        v.rewind();
    }
};

}  // namespace bisc

#endif  // BISCUIT_UTIL_SERIALIZE_H_
