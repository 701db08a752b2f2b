/**
 * @file
 * Bulk-flow helpers: chunked transfers over channel routes.
 *
 * A Route is an ordered channel sequence traversed store-and-forward; a
 * flow moves a payload over one or more parallel routes in fixed-size
 * chunks (round-robin across routes), reporting a single completion when
 * the last chunk of the payload is delivered. This is the DMA abstraction
 * used for memory-virtualization traffic, and — through sendBlocks — the
 * one chunk-forwarding path the collectives ride as well.
 */

#ifndef MCDLA_INTERCONNECT_FLOW_HH
#define MCDLA_INTERCONNECT_FLOW_HH

#include <functional>
#include <vector>

#include "interconnect/channel.hh"

namespace mcdla
{

/** An ordered multi-hop path of channels. */
struct Route
{
    std::vector<Channel *> hops;

    bool valid() const { return !hops.empty(); }
};

/** Default DMA chunk used to interleave concurrent bulk flows. */
constexpr double kDefaultChunkBytes = 512.0 * 1024.0;

/**
 * Transfer @p bytes over @p routes, chunked and round-robined.
 *
 * All chunks are enqueued immediately (channel FIFOs provide the
 * backpressure); completion fires when every chunk has been delivered.
 *
 * @param routes Parallel routes; must be non-empty.
 * @param bytes Total payload.
 * @param chunk_bytes Chunk granularity (> 0).
 * @param on_done Completion callback (may be empty).
 */
void sendFlow(const std::vector<Route> &routes, double bytes,
              double chunk_bytes, std::function<void()> on_done);

/**
 * Transfer one equal-sized block per route: block b moves
 * @p block_bytes over @p routes[b], chunked at @p chunk_bytes exactly
 * like a single-route sendFlow. Chunks are issued block by block, and
 * one completion fires when every chunk of every block has been
 * delivered. This is how a ring collective moves its blocks: each
 * block's route is the concatenation of the ring legs it travels.
 *
 * @param routes One non-empty route per block; copied, so the caller's
 *        storage may be reused as soon as this returns.
 * @param block_bytes Payload of each block (> 0).
 * @param chunk_bytes Chunk granularity (> 0).
 * @param on_done Completion callback (may be empty).
 */
void sendBlocks(const std::vector<Route> &routes, double block_bytes,
                double chunk_bytes, std::function<void()> on_done);

/** sendFlow with the default chunk size. */
inline void
sendFlow(const std::vector<Route> &routes, double bytes,
         std::function<void()> on_done)
{
    sendFlow(routes, bytes, kDefaultChunkBytes, std::move(on_done));
}

} // namespace mcdla

#endif // MCDLA_INTERCONNECT_FLOW_HH
