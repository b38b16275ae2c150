#include "net/frame.hh"

#include <cstring>
#include <memory>

#include "net/serde.hh"
#include "util/logging.hh"

namespace dsm {

namespace {

/** Patch the u32 length prefix reserved at offset 0 once the body is
 *  complete, and move the buffer out. */
std::vector<std::byte>
sealFrame(WireWriter &w)
{
    const std::uint32_t body =
        static_cast<std::uint32_t>(w.size() - sizeof(std::uint32_t));
    DSM_ASSERT(body <= kMaxFrameBytes, "frame body %u over the cap",
               body);
    std::memcpy(w.data(), &body, sizeof(body));
    return w.take();
}

/**
 * Decode a Data frame's image section (u32 count, then u32 length and
 * bytes per image) from the rest of @p r into @p out: every length is
 * checked against the frame before anything is allocated, then all
 * images are copied into one buffer and sliced. False = malformed.
 */
bool
decodeImages(WireReader &r, std::vector<Image> &out)
{
    if (r.remaining() < sizeof(std::uint32_t))
        return false;
    const std::uint32_t n = r.getU32();
    if (n == 0)
        return r.done();
    if (n > r.remaining() / sizeof(std::uint32_t))
        return false;
    WireReader scan = r;
    std::size_t total = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        if (scan.remaining() < sizeof(std::uint32_t))
            return false;
        const std::uint32_t len = scan.getU32();
        if (len > scan.remaining())
            return false;
        scan.skip(len);
        total += len;
    }
    if (!scan.done())
        return false;

    const std::shared_ptr<std::byte[]> buf =
        std::make_shared_for_overwrite<std::byte[]>(total);
    std::byte *p = buf.get();
    out.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint32_t len = r.getU32();
        r.getBytes(p, len);
        out.push_back({std::shared_ptr<const std::byte>(buf, p), len});
        p += len;
    }
    return true;
}

} // namespace

std::vector<std::byte>
encodeDataFrame(const Message &msg)
{
    std::size_t image_bytes = 0;
    for (const Image &img : msg.images)
        image_bytes += sizeof(std::uint32_t) + img.size;
    WireWriter w(sizeof(std::uint32_t) + 1 + 2 * sizeof(NodeId) + 3 +
                 3 * sizeof(std::uint64_t) + 2 * sizeof(std::uint32_t) +
                 msg.payload.size() + image_bytes);
    w.putU32(0); // length prefix, patched by sealFrame
    w.putU8(static_cast<std::uint8_t>(FrameKind::Data));
    w.putPod(msg.src);
    w.putPod(msg.dst);
    w.putU8(static_cast<std::uint8_t>(msg.type));
    w.putU8(msg.isReply ? 1 : 0);
    w.putU8(msg.attempt);
    w.putU64(msg.replyToken);
    w.putU64(msg.vtSendNs);
    w.putU64(msg.vtArriveNs);
    w.putU32(static_cast<std::uint32_t>(msg.payload.size()));
    w.putBytes(msg.payload.data(), msg.payload.size());
    w.putU32(static_cast<std::uint32_t>(msg.images.size()));
    for (const Image &img : msg.images) {
        w.putU32(static_cast<std::uint32_t>(img.size));
        w.putBytes(img.data.get(), img.size);
    }
    return sealFrame(w);
}

std::vector<std::byte>
encodeHelloFrame(NodeId self, int nnodes)
{
    WireWriter w;
    w.putU32(0);
    w.putU8(static_cast<std::uint8_t>(FrameKind::Hello));
    w.putU32(kFrameMagic);
    w.putU16(kFrameVersion);
    w.putPod(self);
    w.putPod(nnodes);
    return sealFrame(w);
}

std::vector<std::byte>
encodeGoodbyeFrame(NodeId self, int round)
{
    DSM_ASSERT(round == 1 || round == 2, "bad goodbye round %d", round);
    WireWriter w;
    w.putU32(0);
    w.putU8(static_cast<std::uint8_t>(FrameKind::Goodbye));
    w.putPod(self);
    w.putU8(static_cast<std::uint8_t>(round));
    return sealFrame(w);
}

void
FrameDecoder::feed(std::span<const std::byte> chunk)
{
    if (poisonedFlag)
        return;
    // Compact once the consumed prefix dominates the buffer, so a
    // long-lived connection does not grow its buffer without bound
    // while still amortizing the memmove.
    if (pos > 4096 && pos * 2 > buf.size()) {
        buf.erase(buf.begin(),
                  buf.begin() + static_cast<std::ptrdiff_t>(pos));
        pos = 0;
    }
    buf.insert(buf.end(), chunk.begin(), chunk.end());
}

bool
FrameDecoder::next(Frame &out)
{
    if (poisonedFlag)
        return false;
    if (buffered() < sizeof(std::uint32_t))
        return false; // torn length prefix: wait for more bytes
    std::uint32_t body = 0;
    std::memcpy(&body, buf.data() + pos, sizeof(body));
    if (body > kMaxFrameBytes || body < 1) {
        // A frame must at least carry its kind byte; anything larger
        // than the cap is stream corruption, not a big message.
        poisonedFlag = true;
        return false;
    }
    if (buffered() < sizeof(std::uint32_t) + body)
        return false; // partial frame
    const std::byte *frame = buf.data() + pos + sizeof(std::uint32_t);
    pos += sizeof(std::uint32_t) + body;

    WireReader r(std::span<const std::byte>(frame, body));
    out = Frame{};
    out.kind = static_cast<FrameKind>(r.getU8());
    switch (out.kind) {
    case FrameKind::Hello: {
        if (r.remaining() != sizeof(std::uint32_t) +
                                 sizeof(std::uint16_t) +
                                 2 * sizeof(NodeId) ||
            r.getU32() != kFrameMagic || r.getU16() != kFrameVersion) {
            poisonedFlag = true;
            return false;
        }
        out.node = r.getPod<NodeId>();
        out.nnodes = r.getPod<int>();
        return true;
    }
    case FrameKind::Data: {
        constexpr std::size_t header = 2 * sizeof(NodeId) + 3 +
                                       3 * sizeof(std::uint64_t) +
                                       sizeof(std::uint32_t);
        if (r.remaining() < header) {
            poisonedFlag = true;
            return false;
        }
        Message &m = out.msg;
        m.src = r.getPod<NodeId>();
        m.dst = r.getPod<NodeId>();
        m.type = static_cast<MsgType>(r.getU8());
        m.isReply = r.getU8() != 0;
        m.attempt = r.getU8();
        m.replyToken = r.getU64();
        m.vtSendNs = r.getU64();
        m.vtArriveNs = r.getU64();
        const std::uint32_t payload_len = r.getU32();
        if (m.type == MsgType::Invalid || m.type >= MsgType::NumTypes ||
            payload_len > r.remaining()) {
            poisonedFlag = true;
            return false;
        }
        m.payload.resize(payload_len);
        if (payload_len > 0)
            r.getBytes(m.payload.data(), payload_len);
        if (!decodeImages(r, m.images)) {
            poisonedFlag = true;
            return false;
        }
        return true;
    }
    case FrameKind::Goodbye: {
        if (r.remaining() != sizeof(NodeId) + 1) {
            poisonedFlag = true;
            return false;
        }
        out.node = r.getPod<NodeId>();
        out.round = r.getU8();
        if (out.round != 1 && out.round != 2) {
            poisonedFlag = true;
            return false;
        }
        return true;
    }
    default:
        poisonedFlag = true;
        return false;
    }
}

} // namespace dsm
