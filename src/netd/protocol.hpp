#pragma once
// neuro::netd wire protocol — the compact length-prefixed binary framing
// between a client and the neurod daemon (docs/ARCHITECTURE.md §11).
//
// This layer is PURE: encode() produces bytes, Decoder consumes bytes fed
// in arbitrary chunks (partial reads, coalesced reads, byte-at-a-time) and
// yields whole frames or a typed decode error — no sockets, no clocks, no
// allocation surprises. tests/netd_protocol_test.cpp pins framing, field
// fidelity and malformed-input rejection deterministically against this
// surface alone; the daemon and every client (bench, example, tests) share
// it, so both directions of the wire are one implementation.
//
// All integers are little-endian. A frame is a u32 body length followed by
// the body; the decoder enforces a configurable body-size ceiling so a
// hostile length prefix can never drive allocation.
//
// Three body versions coexist on the same stream, negotiated PER FRAME by
// the leading version byte (docs/ARCHITECTURE.md §12, §14). v2 adds exactly
// one field to each direction — the model name addressing a fleet entry;
// v3 adds a flags byte to the request and a trace-span block to the
// response (per-request tracing, docs/ARCHITECTURE.md §14):
//
//   request body (v1 | v2 | v3)         response body (v1 | v2 | v3)
//   ---------------------------         ----------------------------
//   u8  version (1, 2 or 3)             u8  version (echoes the request's)
//   u8  kind (Predict|Counts|Feedback)  u8  status (Ok|Rejected|Error)
//   u8  priority (serve::Priority)      u8  reject_reason (serve::RejectReason)
//   u8  reserved (= 0)                  u8  priority
//   u64 request_id (echoed verbatim)    u64 request_id
//   u64 deadline_us (relative; 0=none)  [v2] u8 model_len, u8 model[model_len]
//   u32 label (Feedback only)           u32 label
//   [v2] u8 model_len,                  u64 latency_us
//        u8 model[model_len]            u64 sojourn_us
//   [v3] u8 flags (bit0 = want trace;   u32 batch_size
//        other bits reserved, = 0)      u32 ncounts, i32 counts[ncounts]
//   u8  rank (1..kMaxRank)              u32 error_len, u8 error[error_len]
//   u32 dims[rank]                      [v3] u8 nspans,
//   f32 data[prod(dims)]                     (u8 span_id, u64 value)[nspans]
//
// The v3 trace block is empty (nspans = 0) unless the request set the
// trace flag; span ids are obs::SpanId values (1..7), each at most once.
//
// Negotiation table (server side):
//   frame version | model field | routed to
//   ------------- | ----------- | -------------------------------------
//   1             | absent      | default model; v1 response (byte-
//                 |             | identical to the pre-router daemon)
//   2             | empty       | default model; v2 response echoes ""
//   2             | "name"      | fleet entry "name"; v2 response echoes
//                 |             | it (unknown names reject with
//                 |             | serve::RejectReason::UnknownModel)
//   3             | as v2       | as v2; flags bit0 additionally requests
//                 |             | a span echo in the v3 response
//   other         | —           | DecodeError::BadVersion, socket closed
//
// A declared model_len that overruns the body (or exceeds kMaxModelName)
// poisons the decoder exactly like an oversized tensor shape: framing is
// untrustworthy, so the daemon closes the connection.
//
// The admission metadata (priority class + relative deadline) travels in
// the request header end-to-end into serve::AdmissionQueue; the response
// echoes the request id (responses may arrive out of order — the daemon
// writes each back the moment its completion callback fires) plus the
// server-side disposition: status, reject reason, measured latency and
// queue sojourn, and the micro-batch size it dispatched in.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace neuro::netd {

/// v1: the original single-model framing. Still fully supported — a v1
/// client against a router-backed daemon behaves byte-identically.
inline constexpr std::uint8_t kProtocolVersion = 1;
/// v2: adds the model-name field (multi-model routing).
inline constexpr std::uint8_t kProtocolVersionV2 = 2;
/// v3: adds the request flags byte and the response trace-span block.
inline constexpr std::uint8_t kProtocolVersionV3 = 3;
/// RequestFrame::flags bit asking the daemon to trace this request and
/// echo its span breakdown in the response (obs::TraceContext).
inline constexpr std::uint8_t kFlagTrace = 0x01;
/// Default ceiling on a frame body; a 1 MiB body fits a ~256k-element
/// tensor, far beyond any model this system serves.
inline constexpr std::uint32_t kDefaultMaxFrameBytes = 1u << 20;
inline constexpr std::size_t kMaxRank = 4;
/// Ceiling on the v2 model-name field (matches the router's name rules).
inline constexpr std::size_t kMaxModelName = 64;

/// What a request frame asks for. Predict/Counts mirror ModelRouter::submit /
/// submit_counts; Feedback carries a labeled sample for the online learner
/// (ModelRouter::submit_feedback) and is answered with Ok (accepted) or
/// Rejected{QueueFull} (feedback is best-effort by contract).
enum class MsgKind : std::uint8_t { Predict = 0, Counts = 1, Feedback = 2 };

/// Response disposition; numerically aligned with serve::Status.
enum class WireStatus : std::uint8_t { Ok = 0, Rejected = 1, Error = 2 };

/// Why a Decoder rejected input. Any decode error is fatal for the
/// connection: framing is lost, so the daemon closes the socket.
enum class DecodeError : std::uint8_t {
    None = 0,
    BadVersion,   ///< version byte is not a known protocol version
    BadKind,      ///< unknown MsgKind / WireStatus
    BadPriority,  ///< priority byte outside serve::Priority
    BadShape,     ///< rank/dims inconsistent with the body length
    Oversized,    ///< length prefix above the decoder's ceiling
    Malformed,    ///< body too short / trailing garbage / reserved != 0
    BadModel,     ///< v2 model_len overruns the body or kMaxModelName
};

const char* to_string(DecodeError e);

struct RequestFrame {
    std::uint8_t version = kProtocolVersion;
    MsgKind kind = MsgKind::Predict;
    std::uint8_t priority = 0;      ///< serve::Priority numeric value
    std::uint64_t request_id = 0;   ///< client-chosen, echoed in the response
    std::uint64_t deadline_us = 0;  ///< SLO relative to acceptance; 0 = none
    std::uint32_t label = 0;        ///< Feedback frames only
    /// v2: fleet entry to serve this request ("" = default model). Encoding
    /// a non-empty name requires version >= 2 (encode() throws otherwise).
    std::string model;
    /// v3: request flags (kFlagTrace). Nonzero flags require version >= 3
    /// (encode() throws otherwise); undefined bits are rejected on decode.
    std::uint8_t flags = 0;
    std::vector<std::uint32_t> shape;  ///< tensor dims, rank 1..kMaxRank
    std::vector<float> data;           ///< row-major payload, size = prod(shape)
};

/// One (span id, value) pair of a v3 response's trace block. The id is an
/// obs::SpanId (1..7); values are microseconds except the kernel spans,
/// which are nanoseconds.
struct WireSpan {
    std::uint8_t id = 0;
    std::uint64_t value = 0;
};

struct ResponseFrame {
    std::uint8_t version = kProtocolVersion;
    WireStatus status = WireStatus::Rejected;
    std::uint8_t reject_reason = 0;  ///< serve::RejectReason numeric value
    std::uint8_t priority = 0;
    std::uint64_t request_id = 0;
    /// v2: echoes the request's model field so one connection can demux
    /// responses across models without tracking ids itself.
    std::string model;
    std::uint32_t label = 0;
    std::uint64_t latency_us = 0;
    std::uint64_t sojourn_us = 0;
    std::uint32_t batch_size = 0;
    std::vector<std::int32_t> counts;  ///< filled for Counts requests
    std::string error;                 ///< exception text when status == Error
    /// v3: span breakdown, nonempty only when the request asked to trace.
    /// Encoding a nonempty block requires version >= 3 (encode() throws).
    std::vector<WireSpan> trace;
};

/// Serializes a frame, length prefix included. Throws std::invalid_argument
/// when the frame is self-inconsistent (shape/data mismatch, rank out of
/// range) — an encoder must never emit bytes its own decoder rejects.
std::vector<std::uint8_t> encode(const RequestFrame& f);
std::vector<std::uint8_t> encode(const ResponseFrame& f);

/// Incremental frame extractor. feed() any byte chunks as they arrive;
/// next_request()/next_response() then yields:
///   Result::Frame    — `out` holds one whole decoded frame,
///   Result::NeedMore — nothing complete buffered yet,
///   Result::Error    — the stream is invalid; error() says why and the
///                      decoder is poisoned (every further call errors) —
///                      framing cannot be recovered, close the connection.
/// One Decoder decodes one direction of one stream (requests on the server
/// side, responses on the client side).
class Decoder {
public:
    enum class Result { Frame, NeedMore, Error };

    explicit Decoder(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
        : max_frame_(max_frame_bytes) {}

    void feed(const std::uint8_t* data, std::size_t n);

    Result next_request(RequestFrame& out);
    Result next_response(ResponseFrame& out);

    DecodeError error() const { return error_; }
    /// Bytes buffered but not yet consumed by a decoded frame.
    std::size_t buffered() const { return buf_.size() - pos_; }

private:
    /// Locates the next whole frame body; returns NeedMore/Error or Frame
    /// with [*begin, *begin + *len) valid until the next feed().
    Result next_body(const std::uint8_t** begin, std::size_t* len);
    void consume(std::size_t frame_total);
    Result fail(DecodeError e) {
        error_ = e;
        return Result::Error;
    }

    std::size_t max_frame_;
    std::vector<std::uint8_t> buf_;
    std::size_t pos_ = 0;  ///< consumed prefix of buf_
    DecodeError error_ = DecodeError::None;
};

}  // namespace neuro::netd
