#include "replay.hpp"

#include <memory>

#include "common.hpp"
#include "fea/fea.hpp"
#include "ipc/router.hpp"
#include "ipc/wire.hpp"
#include "rib/rib.hpp"
#include "sim/harness.hpp"

namespace perfbench {

using namespace xrp;
using namespace std::chrono_literals;

namespace {

// Repeats `pass` `reps` times and returns the median duration in seconds.
template <class Fn>
double median_pass_s(int reps, Fn&& pass) {
    std::vector<double> t;
    for (int i = 0; i < reps; ++i) {
        const auto t0 = SteadyClock::now();
        pass();
        t.push_back(seconds_since(t0));
    }
    return median_of(std::move(t));
}

// Nanoseconds per call of `fn`, from the median of five blocks each long
// enough (>= ~20 ms) to swamp clock overhead.
template <class Fn>
double ns_per_call(Fn&& fn) {
    size_t n = 1;
    for (;;) {
        const auto t0 = SteadyClock::now();
        for (size_t i = 0; i < n; ++i) fn();
        if (seconds_since(t0) >= 0.02 || n >= (size_t{1} << 24)) break;
        n *= 2;
    }
    const double s = median_pass_s(5, [&] {
        for (size_t i = 0; i < n; ++i) fn();
    });
    return s * 1e9 / static_cast<double>(n);
}

size_t total_routes(const std::vector<stage::RouteBatch4>& batches) {
    size_t n = 0;
    for (const auto& b : batches) n += b.size();
    return n;
}

}  // namespace

std::vector<stage::RouteBatch4> wire_batches(
    const std::vector<stage::RouteBatch4>& captured, bool bgp_metric) {
    std::vector<stage::RouteBatch4> out;
    out.reserve(captured.size());
    for (const auto& c : captured) {
        stage::RouteBatch4 b = c;
        if (bgp_metric) {
            for (auto& e : b.entries()) {
                auto wire = [](const stage::Route4& r) {
                    return r.igp_metric == stage::kUnresolvedMetric
                               ? uint32_t{0}
                               : r.igp_metric;
                };
                e.route.metric = wire(e.route);
                if (e.op == stage::BatchOp::kReplace)
                    e.old_route.metric = wire(e.old_route);
            }
        }
        b.coalesce();
        if (b.empty()) continue;
        auto decoded = stage::RouteBatch4::decode(b.encode());
        if (decoded) out.push_back(std::move(*decoded));
    }
    return out;
}

CodecCost replay_codec(const std::vector<stage::RouteBatch4>& batches) {
    CodecCost c;
    const size_t routes = total_routes(batches);
    if (routes == 0) return c;
    std::vector<std::string> frames(batches.size());
    size_t bytes = 0;
    const double enc_s = median_pass_s(3, [&] {
        bytes = 0;
        for (size_t i = 0; i < batches.size(); ++i) {
            frames[i] = batches[i].encode();
            bytes += frames[i].size();
        }
    });
    size_t decoded = 0;
    const double dec_s = median_pass_s(3, [&] {
        decoded = 0;
        for (const auto& f : frames) {
            auto b = stage::RouteBatch4::decode(f);
            if (b) decoded += b->size();
        }
    });
    const double n = static_cast<double>(routes);
    c.encode_ns_per_route = enc_s * 1e9 / n;
    c.decode_ns_per_route = dec_s * 1e9 / n;
    c.bytes_per_route = static_cast<double>(bytes) / n;
    return c;
}

// A one-entry add arrives over the scalar verb (add_route_multipath,
// add_route4_multipath), as the XRL handles send it; everything else
// arrives as a batch.
const stage::Route4* singleton_add(const stage::RouteBatch4& b) {
    if (b.size() != 1 || b.entries()[0].op != stage::BatchOp::kAdd)
        return nullptr;
    return &b.entries()[0].route;
}

double replay_rib_ns_per_route(const std::vector<stage::RouteBatch4>& batches,
                               const std::string& protocol) {
    const size_t routes = total_routes(batches);
    if (routes == 0) return 0;
    ev::RealClock clock;
    ev::EventLoop loop(clock);
    rib::Rib rib(loop, std::make_unique<rib::NullFeaHandle>());
    rib.add_route("static", net::IPv4Net::must_parse("192.0.2.0/24"),
                  net::IPv4::must_parse("192.0.2.250"), 1);
    std::vector<stage::RouteBatch4> copies = batches;
    const auto t0 = SteadyClock::now();
    for (auto& b : copies) {
        if (const auto* r = singleton_add(b))
            rib.add_route(protocol, r->net, r->nexthop_set(), r->metric);
        else
            rib.push_batch(protocol, std::move(b));
    }
    return seconds_since(t0) * 1e9 / static_cast<double>(routes);
}

double replay_fea_ns_per_route(const std::vector<stage::RouteBatch4>& batches) {
    const size_t routes = total_routes(batches);
    if (routes == 0) return 0;
    ev::RealClock clock;
    ev::EventLoop loop(clock);
    fea::Fea fea(loop);
    const auto t0 = SteadyClock::now();
    for (const auto& b : batches) {
        if (const auto* r = singleton_add(b))
            fea.add_route(r->net, r->nexthop_set());
        else
            fea.apply_batch(b);
    }
    return seconds_since(t0) * 1e9 / static_cast<double>(routes);
}

double replay_update_decode_ns_per_route(
    const std::vector<bgp::UpdateMessage>& updates) {
    std::vector<std::vector<uint8_t>> bytes;
    size_t routes = 0;
    bytes.reserve(updates.size());
    for (const auto& u : updates) {
        bytes.push_back(bgp::encode_message(bgp::Message(u)));
        routes += u.nlri.size() + u.withdrawn.size();
    }
    if (routes == 0) return 0;
    size_t ok = 0;
    const double s = median_pass_s(3, [&] {
        ok = 0;
        for (const auto& b : bytes)
            if (bgp::decode_message(b.data(), b.size())) ++ok;
    });
    return s * 1e9 / static_cast<double>(routes);
}

double replay_bgp_ns_per_route(const std::vector<bgp::UpdateMessage>& updates,
                               size_t routes) {
    if (routes == 0) return 0;
    ev::RealClock clock;
    ev::EventLoop loop(clock);
    bgp::BgpProcess::Config cfg;
    cfg.local_as = 1777;
    cfg.bgp_id = net::IPv4::must_parse("192.0.2.250");
    bgp::BgpProcess bgp(loop, cfg, std::make_unique<bgp::NullRibHandle>());
    auto feed = sim::attach_feed_peer(loop, bgp,
                                      net::IPv4::must_parse("192.0.2.1"), 3561)
                    .first;
    if (!loop.run_until([&] { return feed->established(); }, 10s)) return 0;
    const auto t0 = SteadyClock::now();
    for (const auto& u : updates) feed->send(u);
    if (!loop.run_until([&] { return bgp.loc_rib_count() >= routes; }, 120s))
        return 0;
    return seconds_since(t0) * 1e9 / static_cast<double>(routes);
}

IpcCost replay_ipc(const std::string& method, const xrl::XrlArgs& args,
                   const xrl::XrlArgs& reply) {
    IpcCost c;
    std::vector<uint8_t> buf;
    c.args_encode_ns = ns_per_call([&] {
        buf.clear();
        ipc::encode_args(args, buf);
    });
    const std::vector<uint8_t> args_bytes = buf;
    c.args_decode_ns = ns_per_call([&] {
        ipc::WireReader r(args_bytes.data(), args_bytes.size());
        (void)ipc::decode_args(r);
    });

    ipc::RequestFrame req;
    req.seq = 7;
    req.method = method;
    req.args = args;
    c.request_encode_ns = ns_per_call([&] {
        buf.clear();
        ipc::encode_request(req, buf);
    });
    const std::vector<uint8_t> req_bytes = buf;
    ipc::RequestFrame req_out;
    ipc::ResponseFrame resp_out;
    c.frame_decode_ns = ns_per_call([&] {
        (void)ipc::decode_frame(req_bytes.data(), req_bytes.size(), req_out,
                                resp_out);
    });

    ipc::ResponseFrame resp;
    resp.seq = 7;
    resp.error = xrl::XrlError::okay();
    resp.args = reply;
    c.response_encode_ns = ns_per_call([&] {
        buf.clear();
        ipc::encode_response(resp, buf);
    });
    const std::vector<uint8_t> resp_bytes = buf;
    c.response_decode_ns = ns_per_call([&] {
        (void)ipc::decode_frame(resp_bytes.data(), resp_bytes.size(), req_out,
                                resp_out);
    });
    c.bytes_per_call =
        static_cast<double>(req_bytes.size() + resp_bytes.size());
    return c;
}

double replay_call_us(const xrl::XrlArgs& args) {
    // Declared before the routers: a reply still in flight at teardown
    // may complete into these.
    bool waiting = false;
    ev::RealClock clock;
    ipc::Plexus plexus(clock);
    ipc::XrlRouter server(plexus, "sink", true);
    server.add_handler("sink/1.0/put", [](const xrl::XrlArgs&, xrl::XrlArgs&) {
        return xrl::XrlError::okay();
    });
    server.enable_tcp();
    server.finalize();
    ipc::XrlRouter client(plexus, "sink-client");
    client.finalize();
    client.set_preferred_family("stcp");
    const xrl::Xrl call = xrl::Xrl::generic("sink", "sink", "1.0", "put", args);

    // Closed loop: the next call leaves when the previous reply lands, the
    // same one-in-flight shape as call_oneway's per-target queue.
    auto run_calls = [&](size_t n) {
        for (size_t i = 0; i < n; ++i) {
            waiting = true;
            client.call(call, ipc::CallOptions::reliable(),
                        [&waiting](const xrl::XrlError&, const xrl::XrlArgs&) {
                            waiting = false;
                        });
            if (!plexus.loop.run_until([&] { return !waiting; }, 5s))
                return false;
        }
        return true;
    };
    if (!run_calls(50)) return 0;  // connect and warm the resolution cache
    size_t n = 64;
    for (;;) {
        const auto t0 = SteadyClock::now();
        if (!run_calls(n)) return 0;
        if (seconds_since(t0) >= 0.05) break;
        n *= 2;
    }
    const double s = median_pass_s(5, [&] { run_calls(n); });
    return s * 1e6 / static_cast<double>(n);
}

}  // namespace perfbench
