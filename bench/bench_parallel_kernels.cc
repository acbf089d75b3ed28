/**
 * @file
 * Serial-vs-parallel throughput of the four converted hot kernels:
 * bilateral grid (splat + blur + slice), integral-image construction,
 * the Viola-Jones scan, and batched MLP inference.
 *
 * Reports per-kernel wall time at 1 thread and at N threads (default 4,
 * overridable with --threads or INCAM_THREADS) plus the speedup, and
 * ends with one machine-readable JSON line so BENCH_*.json files can
 * track the perf trajectory across PRs.
 *
 *   bench_parallel_kernels [--quick] [--threads N]
 *
 * Every mode verifies that parallel results stay bit-identical to
 * serial and exits non-zero on divergence; speedups are reported but
 * never asserted, since they depend on the host's core count.
 * --quick shrinks the workloads (CI smoke mode).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bilateral/grid.hh"
#include "common/rng.hh"
#include "exec/parallel.hh"
#include "harness.hh"
#include "image/integral.hh"
#include "nn/mlp.hh"
#include "vj/detector.hh"

using namespace incam;
using namespace incam::bench;

namespace {

/** Best-of-@p reps wall time of @p fn, in milliseconds. */
template <typename Fn>
double
bestMs(int reps, Fn &&fn)
{
    std::vector<double> ms;
    for (int r = 0; r < reps; ++r) {
        const double t0 = wallSeconds();
        fn();
        ms.push_back(1e3 * (wallSeconds() - t0));
    }
    return best(ms);
}

struct KernelResult
{
    std::string name;
    double serial_ms = 0.0;
    double parallel_ms = 0.0;
    bool identical = true; ///< parallel output bit-identical to serial

    double
    speedup() const
    {
        return parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0;
    }
};

bool
imagesIdentical(const ImageF &a, const ImageF &b)
{
    if (!a.sameShape(b)) {
        return false;
    }
    for (int y = 0; y < a.height(); ++y) {
        for (int x = 0; x < a.width(); ++x) {
            if (a.at(x, y) != b.at(x, y)) {
                return false;
            }
        }
    }
    return true;
}

ImageF
randomF(int w, int h, uint64_t seed)
{
    Rng rng(seed);
    ImageF img(w, h, 1);
    for (auto &v : img) {
        v = static_cast<float>(rng.uniform());
    }
    return img;
}

ImageU8
randomU8(int w, int h, uint64_t seed)
{
    Rng rng(seed);
    ImageU8 img(w, h, 1);
    for (auto &v : img) {
        v = static_cast<uint8_t>(rng.below(256));
    }
    return img;
}

/** A permissive two-rect cascade so the scan does real stump work. */
Cascade
benchCascade()
{
    HaarFeature f;
    f.kind = HaarFeature::Kind::Edge2H;
    f.n_rects = 2;
    f.rects[0] = {0, 0, 10, 20, 1};
    f.rects[1] = {10, 0, 10, 20, -1};

    Stump stump;
    stump.feature = 0;
    stump.threshold = 0.0;
    stump.polarity = 1;
    stump.alpha = 1.0;

    CascadeStage stage;
    stage.stumps.push_back(stump);
    stage.threshold = 0.5;
    return Cascade(20, {f}, {stage});
}

KernelResult
benchBilateralGrid(int w, int h, int reps, const ExecPolicy &par)
{
    const ImageF img = randomF(w, h, 11);
    auto run = [&](const ExecPolicy &pol) {
        BilateralGrid g(w, h, 8.0, 12);
        g.splat(img, img, nullptr, nullptr, pol);
        g.blur(nullptr, pol);
        return g.slice(img, 0.0f, nullptr, pol);
    };
    KernelResult r{"bilateral_grid"};
    r.serial_ms = bestMs(reps, [&] { run(ExecPolicy::serial()); });
    r.parallel_ms = bestMs(reps, [&] { run(par); });
    r.identical = imagesIdentical(run(ExecPolicy::serial()), run(par));
    return r;
}

KernelResult
benchIntegralImage(int w, int h, int reps, const ExecPolicy &par)
{
    const ImageU8 img = randomU8(w, h, 22);
    KernelResult r{"integral_image"};
    r.serial_ms = bestMs(reps, [&] {
        const IntegralImage ii(img);
        (void)ii.rectSum(0, 0, w, h);
    });
    r.parallel_ms = bestMs(reps, [&] {
        const IntegralImage ii(img, par);
        (void)ii.rectSum(0, 0, w, h);
    });
    const IntegralImage serial(img);
    const IntegralImage threaded(img, par);
    Rng rects(55);
    for (int i = 0; i < 200 && r.identical; ++i) {
        const int x = static_cast<int>(rects.below(w));
        const int y = static_cast<int>(rects.below(h));
        const int rw = 1 + static_cast<int>(rects.below(w - x));
        const int rh = 1 + static_cast<int>(rects.below(h - y));
        r.identical = serial.rectSum(x, y, rw, rh) ==
                          threaded.rectSum(x, y, rw, rh) &&
                      serial.rectSumSq(x, y, rw, rh) ==
                          threaded.rectSumSq(x, y, rw, rh);
    }
    return r;
}

KernelResult
benchDetector(int w, int h, int reps, const ExecPolicy &par)
{
    const Cascade cascade = benchCascade();
    const ImageU8 img = randomU8(w, h, 33);
    auto run = [&](const ExecPolicy &pol) {
        DetectorParams p;
        p.adaptive_step = false;
        p.static_step = 2;
        p.scale_factor = 1.25;
        p.exec = pol;
        const Detector d(cascade, p);
        return d.rawHits(img);
    };
    KernelResult r{"vj_scan"};
    r.serial_ms = bestMs(reps, [&] { run(ExecPolicy::serial()); });
    r.parallel_ms = bestMs(reps, [&] { run(par); });
    r.identical = run(ExecPolicy::serial()) == run(par);
    return r;
}

KernelResult
benchNnForward(int batch, int reps, const ExecPolicy &par)
{
    const Mlp net(MlpTopology{{400, 64, 16, 1}}, 7);
    Rng rng(44);
    std::vector<std::vector<float>> inputs;
    for (int i = 0; i < batch; ++i) {
        std::vector<float> in(400);
        for (auto &v : in) {
            v = static_cast<float>(rng.uniform());
        }
        inputs.push_back(std::move(in));
    }
    KernelResult r{"nn_forward"};
    r.serial_ms = bestMs(
        reps, [&] { net.forwardBatch(inputs, ExecPolicy::serial()); });
    r.parallel_ms = bestMs(reps, [&] { net.forwardBatch(inputs, par); });
    r.identical = net.forwardBatch(inputs, ExecPolicy::serial()) ==
                  net.forwardBatch(inputs, par);
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    int threads = 4;
    if (const char *env = std::getenv("INCAM_THREADS")) {
        const int n = std::atoi(env);
        if (n > 0) {
            threads = n;
        }
    }
    const bool quick = parseQuick(
        argc, argv,
        [&threads](int n, char **arg) {
            if (n < 2 || std::strcmp(arg[0], "--threads") != 0) {
                return 0;
            }
            threads = std::atoi(arg[1]);
            return 2;
        },
        " [--threads N]");
    const ExecPolicy par{threads, 1};

    banner("parallel kernels",
           "serial vs " + std::to_string(threads) +
               "-thread throughput of the converted hot loops");
    std::printf("mode: %s\n\n", quick ? "quick (CI smoke)" : "full");

    const int scale = quick ? 1 : 4;
    const int reps = quick ? 1 : 3;
    std::vector<KernelResult> results;
    results.push_back(
        benchBilateralGrid(160 * scale, 120 * scale, reps, par));
    results.push_back(
        benchIntegralImage(320 * scale, 240 * scale, reps, par));
    results.push_back(benchDetector(160 * scale, 120 * scale, reps, par));
    results.push_back(benchNnForward(64 * scale, reps, par));

    Gates gates;
    Json json("parallel_kernels");
    json.field("threads", threads).field("quick", quick).array("results");
    std::printf("%-16s %12s %12s %10s %12s\n", "kernel", "serial (ms)",
                "parallel (ms)", "speedup", "identical");
    for (const auto &r : results) {
        gates.check(r.name + " bit-identical to serial", r.identical);
        std::printf("%-16s %12.3f %12.3f %9.2fx %12s\n", r.name.c_str(),
                    r.serial_ms, r.parallel_ms, r.speedup(),
                    r.identical ? "yes" : "MISMATCH");
        json.item()
            .field("kernel", r.name).field("serial_ms", r.serial_ms, 3)
            .field("parallel_ms", r.parallel_ms, 3)
            .field("speedup", r.speedup(), 3).field("identical", r.identical)
            .end();
    }
    json.print();
    return gates.exitCode("bench_parallel_kernels");
}
