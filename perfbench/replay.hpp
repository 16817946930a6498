// Layer replays for the traced run: the inputs a run captured (UPDATE
// bytes, route batches, XRL argument lists) pushed again through one
// layer's public entry point at a time, in isolation, to price that layer
// per route or per call.
#ifndef PERFBENCH_REPLAY_HPP
#define PERFBENCH_REPLAY_HPP

#include <string>
#include <vector>

#include "bgp/message.hpp"
#include "stage/batch.hpp"
#include "xrl/args.hpp"

namespace perfbench {

struct CodecCost {
    double encode_ns_per_route = 0;
    double decode_ns_per_route = 0;
    double bytes_per_route = 0;
};

struct IpcCost {
    double args_encode_ns = 0;     // ipc::encode_args
    double args_decode_ns = 0;     // ipc::decode_args
    double request_encode_ns = 0;  // ipc::encode_request (method + args)
    double frame_decode_ns = 0;    // ipc::decode_frame of that request
    double response_encode_ns = 0;
    double response_decode_ns = 0;
    double bytes_per_call = 0;     // request + response frame bytes
    // Marshalling work one call costs both ends: the request encoded and
    // decoded, the response encoded and decoded.
    double marshal_ns() const {
        return request_encode_ns + frame_decode_ns + response_encode_ns +
               response_decode_ns;
    }
};

// What a receiver decodes from the batches a handle was given: the
// handle's coalesce, then the text frame round trip. The BGP side also
// carries the resolved IGP metric in the metric slot, as the wire does.
std::vector<xrp::stage::RouteBatch4> wire_batches(
    const std::vector<xrp::stage::RouteBatch4>& captured, bool bgp_metric);

CodecCost replay_codec(const std::vector<xrp::stage::RouteBatch4>& batches);

// Batches into a fresh Rib (NullFeaHandle, the same static covering route)
// under `protocol`; nanoseconds per route entry.
double replay_rib_ns_per_route(
    const std::vector<xrp::stage::RouteBatch4>& batches,
    const std::string& protocol);

// Batches into a fresh Fea through apply_batch; nanoseconds per entry.
double replay_fea_ns_per_route(
    const std::vector<xrp::stage::RouteBatch4>& batches);

// bgp::decode_message over the encoded bytes of `updates`; nanoseconds per
// NLRI route.
double replay_update_decode_ns_per_route(
    const std::vector<xrp::bgp::UpdateMessage>& updates);

// The whole BGP side alone: `updates` through a feed peer into a fresh
// BgpProcess whose RIB handle does nothing, until loc-RIB holds
// `routes`. Nanoseconds per route (session, decode, BGP stages).
double replay_bgp_ns_per_route(
    const std::vector<xrp::bgp::UpdateMessage>& updates, size_t routes);

IpcCost replay_ipc(const std::string& method, const xrp::xrl::XrlArgs& args,
                   const xrp::xrl::XrlArgs& reply);

// Closed-loop round trip of one call carrying `args` over stcp to a
// handler that does nothing, on one event loop: the per-call cost of the
// XRL layer (call contract, marshalling, transport, dispatch) without the
// receiver's work. Microseconds per call.
double replay_call_us(const xrp::xrl::XrlArgs& args);

}  // namespace perfbench

#endif
