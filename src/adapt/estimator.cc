#include "adapt/estimator.hh"

#include <cmath>

#include "common/logging.hh"

namespace incam {

ConditionEstimator::ConditionEstimator(Time horizon)
    : tau(horizon.sec())
{
    incam_assert(tau > 0.0, "estimator horizon must be positive");
}

void
ConditionEstimator::Ewma::fold(double t, double x, double tau)
{
    if (!seen) {
        seen = true;
        value = x;
        last_t = t;
        return;
    }
    // Continuous-time EWMA: weight decays with the model time that
    // actually elapsed between observations, so irregular sampling
    // cadences (a gate that only sees traffic sometimes) still yield
    // the configured horizon.
    const double dt = std::max(0.0, t - last_t);
    const double alpha = 1.0 - std::exp(-dt / tau);
    // dt == 0 (two observations at one instant): keep the newer one's
    // influence non-zero so a same-tick correction is not ignored.
    value += (alpha > 0.0 ? alpha : 0.5) * (x - value);
    last_t = t;
}

void
ConditionEstimator::observe(double t, const ConditionSample &s)
{
    if (s.goodput_bps >= 0.0) {
        goodput.fold(t, s.goodput_bps, tau);
    }
    if (s.energy_per_bit_j >= 0.0) {
        ebit.fold(t, s.energy_per_bit_j, tau);
    }
    if (s.motion_pass >= 0.0) {
        motion.fold(t, s.motion_pass, tau);
    }
    if (s.face_pass >= 0.0) {
        face.fold(t, s.face_pass, tau);
    }
    if (s.latency_s >= 0.0) {
        lat.fold(t, s.latency_s, tau);
    }
    if (s.loss_rate >= 0.0) {
        loss.fold(t, s.loss_rate, tau);
    }
    if (s.retry_rate >= 0.0) {
        retries.fold(t, s.retry_rate, tau);
    }
    if (s.backoff_fraction >= 0.0) {
        backoff.fold(t, s.backoff_fraction, tau);
    }
}

NetworkLink
ConditionEstimator::estimatedLink(const NetworkLink &base) const
{
    NetworkLink l = base;
    l.name = base.name + " (estimated)";
    if (goodput.seen) {
        l.bandwidth = Bandwidth::bytesPerSec(goodput.value);
        l.protocol_efficiency = 1.0; // goodput is what was observed
    }
    if (ebit.seen) {
        l.energy_per_bit = Energy::joules(ebit.value);
    }
    return l;
}

double
ConditionEstimator::motionPass(double fallback) const
{
    return motion.seen ? motion.value : fallback;
}

double
ConditionEstimator::facePass(double fallback) const
{
    return face.seen ? face.value : fallback;
}

double
ConditionEstimator::latency(double fallback) const
{
    return lat.seen ? lat.value : fallback;
}

double
ConditionEstimator::lossRate(double fallback) const
{
    return loss.seen ? loss.value : fallback;
}

double
ConditionEstimator::retryRate(double fallback) const
{
    return retries.seen ? retries.value : fallback;
}

double
ConditionEstimator::backoffFraction(double fallback) const
{
    return backoff.seen ? backoff.value : fallback;
}

void
ConditionEstimator::reset()
{
    goodput = Ewma{};
    ebit = Ewma{};
    motion = Ewma{};
    face = Ewma{};
    lat = Ewma{};
    loss = Ewma{};
}

void
ConditionEstimator::resetNetwork()
{
    goodput = Ewma{};
    ebit = Ewma{};
    loss = Ewma{};
    retries = Ewma{};
    backoff = Ewma{};
}

TelemetrySampler::TelemetrySampler(const Telemetry &probe,
                                   double time_scale)
    : src(&probe), scale(time_scale)
{
    incam_assert(scale > 0.0, "time_scale must be positive");
}

ConditionSample
TelemetrySampler::sample(double t)
{
    const double bytes =
        src->bytes_sent.load(std::memory_order_relaxed);
    const double energy =
        src->comm_energy_j.load(std::memory_order_relaxed);
    // Count first (acquire): the sum then covers every counted frame.
    const int64_t lat_n =
        src->delivered_frames.load(std::memory_order_acquire);
    const double lat_sum =
        src->latency_sum_s.load(std::memory_order_relaxed);
    const int64_t g_in = src->gate_in.load(std::memory_order_relaxed);
    const int64_t g_pass =
        src->gate_pass.load(std::memory_order_relaxed);
    const int64_t tx_a =
        src->tx_attempts.load(std::memory_order_relaxed);
    const int64_t tx_l =
        src->tx_losses.load(std::memory_order_relaxed);
    const int64_t retry_a =
        src->retry_attempts.load(std::memory_order_relaxed);
    const double backoff_s =
        src->backoff_seconds.load(std::memory_order_relaxed);

    ConditionSample s;
    s.queue_depth = static_cast<double>(
        src->uplink_queue_depth.load(std::memory_order_relaxed));
    if (primed) {
        const double dt = t - last_t;
        const double d_bytes = bytes - bytes0;
        if (dt > 0.0 && d_bytes > 0.0) {
            s.goodput_bps = d_bytes / dt;
            const double d_energy = energy - energy0;
            if (d_energy > 0.0) {
                s.energy_per_bit_j = d_energy / (d_bytes * 8.0);
            }
        }
        if (g_in > gate_in0) {
            s.motion_pass = static_cast<double>(g_pass - gate_pass0) /
                            static_cast<double>(g_in - gate_in0);
        }
        if (lat_n > lat_n0) {
            // Measured latencies are wall seconds; the trace clock is
            // model time.
            s.latency_s = (lat_sum - latency0) /
                          static_cast<double>(lat_n - lat_n0) / scale;
        }
        if (tx_a > tx_attempts0) {
            s.loss_rate = static_cast<double>(tx_l - tx_losses0) /
                          static_cast<double>(tx_a - tx_attempts0);
            s.retry_rate =
                static_cast<double>(retry_a - retry_attempts0) /
                static_cast<double>(tx_a - tx_attempts0);
        }
        if (dt > 0.0) {
            // Backoff waits accrue in model seconds (never scaled by
            // time_scale), the same clock as the window itself.
            s.backoff_fraction = (backoff_s - backoff0) / dt;
        }
    }
    primed = true;
    last_t = t;
    bytes0 = bytes;
    energy0 = energy;
    latency0 = lat_sum;
    lat_n0 = lat_n;
    gate_in0 = g_in;
    gate_pass0 = g_pass;
    tx_attempts0 = tx_a;
    tx_losses0 = tx_l;
    retry_attempts0 = retry_a;
    backoff0 = backoff_s;
    return s;
}

} // namespace incam
