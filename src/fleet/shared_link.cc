#include "fleet/shared_link.hh"

#include <algorithm>
#include <chrono>
#include <limits>

#include "common/logging.hh"
#include "sim/clock.hh"

namespace incam {

SharedLink::SharedLink(NetworkLink link, Options options)
    : opts(options),
      clk(options.clock != nullptr ? options.clock
                                   : &sim::WallClock::shared()),
      core(std::move(link),
           sim::SimLink::Options{options.policy, options.trace})
{
    incam_assert(opts.time_scale > 0.0, "time_scale must be positive");
}

int
SharedLink::addEndpoint(std::string name, double weight)
{
    MutexLock lk(mu);
    const int endpoint = core.addEndpoint(std::move(name), weight);
    slots.emplace_back();
    return endpoint;
}

void
SharedLink::startLocked()
{
    if (!started) {
        started = true;
        epoch0 = clk->now();
    }
}

void
SharedLink::start()
{
    MutexLock lk(mu);
    startLocked();
}

double
SharedLink::modelNowLocked()
{
    return (clk->now() - epoch0) / opts.time_scale;
}

void
SharedLink::dispatchLocked(
    const std::vector<sim::SimLink::Completion> &popped)
{
    if (popped.empty()) {
        return;
    }
    for (const sim::SimLink::Completion &c : popped) {
        Slot &slot = slots[static_cast<size_t>(c.endpoint)];
        slot.completion = c;
        slot.done = true;
    }
    // Owners wake to collect; everyone else's share just grew, so
    // their departure instants moved earlier.
    cv.notify_all();
}

Energy
SharedLink::acquire(int endpoint, double bytes, double trace_time_hint)
{
    incam_assert(bytes >= 0.0, "negative transmission size");
    MutexLock lk(mu);
    incam_assert(endpoint >= 0 &&
                     static_cast<size_t>(endpoint) < slots.size(),
                 "unknown endpoint ", endpoint);

    if (!opts.pace) {
        // Counting mode: the engine's own pricing, no medium.
        const Energy e = core.price(bytes, trace_time_hint);
        core.countGrant(endpoint, bytes);
        return e;
    }

    startLocked();
    Slot &slot = slots[static_cast<size_t>(endpoint)];
    // The burst is the hold room: while this thread wakes up after its
    // departure, its radio keeps draining the next frame's bytes.
    const double burst = opts.burst_bytes > 0.0
                             ? opts.burst_bytes
                             : std::max(1.0, 2.0 * bytes);
    dispatchLocked(
        core.submit(endpoint, bytes, modelNowLocked(), burst));
    while (!slot.done) {
        const double t_dep = core.nextDepartureTime();
        incam_assert(t_dep < std::numeric_limits<double>::infinity(),
                     "a transmission is in flight, so some departure "
                     "must be due");
        const double wake = epoch0 + t_dep * opts.time_scale;
        if (clk->virtualTime()) {
            // Model time is single-threaded by the VirtualClock
            // contract: the waiter advances the cursor itself.
            clk->sleepUntil(wake);
        } else if (const double wait_s = wake - clk->now(); wait_s > 0.0) {
            // Woken by a departure (shares changed) or the deadline:
            // settle to now and re-derive the next departure.
            cv.wait_for(lk.raw(), std::chrono::duration<double>(wait_s));
            dispatchLocked(core.advanceTo(modelNowLocked()));
            continue;
        }
        // The clock reached the departure: settle at least to it, as
        // clock-to-model rounding can land a hair short of t_dep.
        dispatchLocked(
            core.advanceTo(std::max(modelNowLocked(), t_dep)));
    }
    slot.done = false;
    // The core is settled to (about) now: bank what drained past the
    // departure while this thread woke, against the next transmission.
    core.collect(endpoint);
    return slot.completion.energy;
}

void
SharedLink::release(int endpoint)
{
    MutexLock lk(mu);
    core.release(endpoint);
}

std::vector<LinkEndpointReport>
SharedLink::report() const
{
    MutexLock lk(mu);
    return core.report();
}

} // namespace incam
