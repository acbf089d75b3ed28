/**
 * @file
 * The one bench harness: argument parsing, the wall timer, estimators
 * over repeated timings, named gates with the exit code they add up to,
 * the `BENCH_JSON` writer, the banner, and the lossy-radio rig the
 * fault and observability benches share.
 */

#ifndef INCAM_BENCH_HARNESS_HH
#define INCAM_BENCH_HARNESS_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "core/pipeline.hh"

namespace incam::bench {

/**
 * Parse `[--quick]` and return whether it was given. @p extra sees
 * every other argument first, as (entries left, argv at it), and
 * returns how many entries it consumed — 0 when the option is not its
 * own. Anything unrecognised prints usage and exits 2.
 */
inline bool
parseQuick(int argc, char **argv,
           const std::function<int(int, char **)> &extra = {},
           const char *extra_usage = "")
{
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        const bool q = std::strcmp(argv[i], "--quick") == 0;
        const int used = q ? 1 : extra ? extra(argc - i, argv + i) : 0;
        if (used <= 0) {
            std::fprintf(stderr, "usage: %s [--quick]%s\n", argv[0],
                         extra_usage);
            std::exit(2);
        }
        quick = quick || q;
        i += used - 1;
    }
    return quick;
}

/** Host wall time in seconds, for timing the bench itself. */
inline double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Upper median (the middle sample for odd sizes). */
inline double
median(std::vector<double> v)
{
    const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
    std::nth_element(v.begin(), mid, v.end());
    return *mid;
}

/** Best-of-repeats: host noise (scheduler, cron, page cache) only
 *  ever adds time, so the minimum is the least-contaminated sample. */
inline double
best(const std::vector<double> &v)
{
    return *std::min_element(v.begin(), v.end());
}

/** Named pass/fail checks and the exit code they add up to. */
class Gates
{
  public:
    /** Record check @p name; returns @p ok so callers can mark rows. */
    bool
    check(const std::string &name, bool ok)
    {
        ++total;
        if (!ok) {
            failed.push_back(name);
        }
        return ok;
    }

    /** One `FAIL` line per missed check on stderr; 1 if any missed. */
    int
    exitCode(const char *bench) const
    {
        for (const std::string &name : failed) {
            std::fprintf(stderr, "FAIL %s: %s\n", bench, name.c_str());
        }
        if (failed.empty()) {
            std::printf("%s: all %d gates passed\n", bench, total);
            return 0;
        }
        std::fprintf(stderr, "%s: %zu of %d gates failed\n", bench,
                     failed.size(), total);
        return 1;
    }

  private:
    int total = 0;
    std::vector<std::string> failed;
};

/**
 * The `BENCH_JSON {...}` line: one object opened with the bench name,
 * nested with object()/array()/item() ... end(), printed by print().
 * The writer places commas and escapes strings, and prints a
 * non-finite number as `null`, so every line parses.
 */
class Json
{
  public:
    explicit Json(const char *bench) { open('{').field("bench", bench); }

    /** A number; @p decimals < 0 prints 6 significant digits. */
    Json &
    field(const char *k, double v, int decimals = -1)
    {
        char tmp[64] = "null";
        if (std::isfinite(v) && decimals < 0) {
            std::snprintf(tmp, sizeof tmp, "%.6g", v);
        } else if (std::isfinite(v)) {
            std::snprintf(tmp, sizeof tmp, "%.*f", decimals, v);
        }
        return raw(k, tmp);
    }

    template <std::integral T>
        requires(!std::same_as<T, bool>)
    Json &field(const char *k, T v) { return raw(k, std::to_string(v)); }
    Json &field(const char *k, bool v) { return raw(k, v ? "true" : "false"); }
    Json &field(const char *k, const char *v) { return str(k, v); }
    Json &field(const char *k, const std::string &v) { return str(k, v); }

    /** Open a keyed object / array, or an object element of the
     *  enclosing array; end() closes the innermost one. */
    Json &object(const char *k) { return raw(k, "").open('{'); }
    Json &array(const char *k) { return raw(k, "").open('['); }
    Json &item() { return comma().open('{'); }

    Json &
    end()
    {
        buf += closers.back();
        closers.pop_back();
        fresh = false;
        return *this;
    }

    /** Close every open scope and print the line to stdout. */
    void
    print()
    {
        buf.append(closers.rbegin(), closers.rend());
        closers.clear();
        std::printf("\nBENCH_JSON %s\n", buf.c_str());
    }

  private:
    Json &
    open(char c)
    {
        buf += c;
        closers += c == '{' ? '}' : ']';
        fresh = true;
        return *this;
    }

    Json &
    comma()
    {
        buf += fresh ? "" : ",";
        fresh = false;
        return *this;
    }

    /** `"key":` followed by an already formatted value. */
    Json &
    raw(const char *k, const std::string &value)
    {
        comma();
        buf += std::string("\"") + k + "\":" + value;
        return *this;
    }

    /** A string value; quotes, backslashes and controls as \u escapes. */
    Json &
    str(const char *k, const std::string &v)
    {
        std::string q = "\"";
        for (const char c : v) {
            char esc[8] = {c, 0};
            if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) {
                std::snprintf(esc, sizeof esc, "\\u%04x",
                              static_cast<unsigned char>(c));
            }
            q += esc;
        }
        return raw(k, q + "\"");
    }

    std::string buf;
    std::string closers; ///< the open scopes' closing brackets
    bool fresh = true;   ///< nothing written yet in the innermost scope
};

/** Print a titled banner for one bench. */
inline void
banner(const std::string &title, const std::string &what)
{
    std::printf("\n=================================================="
                "====================\n%s — %s\n"
                "=================================================="
                "====================\n",
                title.c_str(), what.c_str());
}

/** A radio at @p bytes_per_sec goodput costing @p nj_per_bit. */
inline NetworkLink
radioLink(const std::string &name, double bytes_per_sec, double nj_per_bit)
{
    NetworkLink l;
    l.name = name;
    l.bandwidth = Bandwidth::bytesPerSec(bytes_per_sec);
    l.energy_per_bit = Energy::nanojoules(nj_per_bit);
    return l;
}

/** The adaptive-test crossover pipeline: stream the raw 1000-byte
 *  frame (cut 0) or compute in camera for 50 uJ and ship 100 bytes. */
inline Pipeline
offloadablePipeline()
{
    Pipeline p("offloadable", DataSize::bytes(1000));
    Block reduce("Reduce", /*optional=*/false, DataSize::bytes(100));
    reduce.addImpl(Impl::Asic,
                   {Time::milliseconds(5), Energy::microjoules(50)});
    p.add(reduce);
    return p;
}

} // namespace incam::bench

#endif // INCAM_BENCH_HARNESS_HH
