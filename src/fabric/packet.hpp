// Wire-level metadata and completion records for the simulated fabric.
#pragma once

#include <cstddef>
#include <cstdint>

namespace lcr::fabric {

/// Rank of a host on the fabric.
using Rank = std::uint32_t;

/// Remote-access key identifying a registered memory region on an endpoint.
using RKey = std::uint32_t;

inline constexpr RKey kInvalidRKey = ~0U;

/// Flags in MsgMeta::rel describing how the reliability layer
/// (fabric/reliable.hpp) should treat a packet. The fabric only inspects
/// kRelCtrl; everything else is peer-to-peer protocol state.
enum RelFlag : std::uint8_t {
  /// Packet carries a valid per-link sequence number + CRC and must pass
  /// through the receiver's ordering/dedup window.
  kRelSeq = 1u << 0,
  /// `ack` carries a valid cumulative acknowledgement (piggybacked or
  /// standalone).
  kRelAck = 1u << 1,
  /// Transport-internal put notification: the sender's channel requested a
  /// completion so it can sequence/ack the put, but the application asked
  /// for notify=false - the receiving channel consumes it silently.
  kRelBare = 1u << 2,
  /// Retransmit probe: "did sequence number `seq` arrive?" The receiver
  /// answers with an ack (delivered) or a nack (lost, please re-put).
  kRelProbe = 1u << 3,
  /// Header-only control packet (ack/probe). The fabric delivers it without
  /// consuming a pre-posted receive buffer - the analogue of the header-only
  /// credit/ack messages real NICs exchange below the receive queue - so
  /// acknowledgements can always land even when the rx window is exhausted.
  kRelCtrl = 1u << 4,
};

/// Metadata carried with every eager packet and with put-notifications.
/// `kind` is interpreted by the layer above (LCI packet types, mpilite
/// protocol messages); the fabric never looks at it. The `seq`/`ack`/`crc`/
/// `rel` fields belong to the optional reliability layer and stay zero on a
/// reliable fabric.
struct MsgMeta {
  Rank src = 0;
  std::uint8_t kind = 0;
  std::uint8_t rel = 0;     // RelFlag bits (reliability layer)
  std::uint32_t tag = 0;
  std::uint32_t size = 0;   // payload bytes
  std::uint64_t imm = 0;    // immediate word 1 (request handles, counts, ...)
  std::uint64_t imm2 = 0;   // immediate word 2 (addresses, rkeys, ...)
  std::uint32_t seq = 0;    // per-link sequence number (kRelSeq / kRelProbe)
  std::uint32_t ack = 0;    // cumulative ack: all seq < ack delivered
  std::uint32_t crc = 0;    // CRC-32 over header fields + payload (kRelSeq)
  /// Causal-trace context (telemetry): copied out of the framed payload's
  /// ChunkHeader by the reliability channel so the fabric and the protocol
  /// can record lifecycle hops without parsing payloads. 0 = unsampled.
  std::uint32_t trace_id = 0;
  /// Reliability layer: which transmission of `seq` this is (0 = the first
  /// post, 1 = the first retransmit, ...). With `seq` it names the wire
  /// operation, so the fault roll can key on the message rather than on the
  /// link slot it happens to occupy; trace hops record it as their attempt.
  /// Excluded from the CRC, like `ack`: it changes per (re)post.
  std::uint16_t attempt = 0;
};

/// Result of posting an operation to the fabric.
enum class PostResult : std::uint8_t {
  Ok = 0,
  /// Receiver has no pre-posted receive buffer (RNR in verbs terms).
  /// Non-fatal: retry later. This is the back-pressure signal.
  NoRxBuffer,
  /// Sender is out of injection tokens; retry later.
  Throttled,
  /// Receiver completion queue is full; retry later.
  CqFull,
  /// Payload larger than the MTU (caller bug for post_send).
  TooLarge,
  /// Bad rank / rkey / bounds (caller bug).
  Invalid,
  /// Reliability layer: the per-link retransmit ring is full of unacked
  /// operations. Non-fatal back pressure - progress the channel and retry.
  RetransmitFull,
  /// The destination host is dead (fail-stop kill): its endpoint was torn
  /// down and nothing will be delivered until the host is revived under a
  /// new epoch. Peers observe delivery failure instead of silence.
  Down,
};

inline const char* to_string(PostResult r) {
  switch (r) {
    case PostResult::Ok: return "Ok";
    case PostResult::NoRxBuffer: return "NoRxBuffer";
    case PostResult::Throttled: return "Throttled";
    case PostResult::CqFull: return "CqFull";
    case PostResult::TooLarge: return "TooLarge";
    case PostResult::Invalid: return "Invalid";
    case PostResult::RetransmitFull: return "RetransmitFull";
    case PostResult::Down: return "Down";
  }
  return "?";
}

/// Completion-queue entry delivered to the receiving endpoint.
struct Cqe {
  enum class Kind : std::uint8_t {
    Recv,    ///< An eager packet landed in `buffer` (a pre-posted rx buffer).
    PutImm,  ///< An RDMA write completed remotely; meta.imm carries the
             ///< immediate; no rx buffer is consumed.
  };
  Kind kind = Kind::Recv;
  MsgMeta meta;
  /// Recv: the pre-posted rx buffer holding the payload. PutImm: the landed
  /// region inside the registered target (so the reliability layer can
  /// checksum what actually arrived); nullptr for header-only control
  /// packets (RelFlag::kRelCtrl), which consume no rx buffer.
  void* buffer = nullptr;
  std::uint64_t rx_context = 0;    // the context the buffer was posted with
  std::uint64_t deliver_at_ns = 0; // visibility time (wire latency model)
  /// Fabric epoch at posting time. The epoch advances when a killed host is
  /// revived; Endpoint::poll_cq fences entries stamped with a stale epoch so
  /// packets from a previous incarnation never reach the new one.
  std::uint32_t epoch = 0;
};

/// rx_context value for header-only control packets (no rx buffer attached).
inline constexpr std::uint64_t kCtrlRxContext = ~0ull;

}  // namespace lcr::fabric
