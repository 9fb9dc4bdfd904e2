/**
 * @file
 * Statistics and tracing helpers of the benchmark: a percentile that
 * refuses to report a tail it has too few samples for, and the self time
 * of each span in an in-memory span tree.
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** Samples that must lie beyond a reported percentile. */
inline constexpr size_t kMinBeyond = 10;

/**
 * Nearest-rank percentile @p p (0 < p < 100) of @p samples. Throws
 * std::runtime_error unless at least kMinBeyond samples rank above the
 * reported one, so a run too short for a named tail fails loudly
 * instead of printing its maximum as "p99".
 */
inline double
percentile(std::vector<double> samples, double p, const std::string &what)
{
    if (!(p > 0 && p < 100))
        throw std::invalid_argument("percentile out of range for " + what);
    size_t n = samples.size();
    size_t rank = size_t(std::ceil(p / 100.0 * double(n)));
    rank = std::max<size_t>(rank, 1);
    if (n == 0 || n - std::min(rank, n) < kMinBeyond) {
        size_t need = size_t(std::ceil(double(kMinBeyond) /
                                       (1.0 - p / 100.0)));
        throw std::runtime_error(
            what + ": p" + std::to_string(int(p)) + " needs at least " +
            std::to_string(need) + " samples, run has " + std::to_string(n));
    }
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    return samples[rank - 1];
}

/** Median of @p xs (lower middle for even counts); 0 when empty. */
inline double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    size_t mid = (xs.size() - 1) / 2;
    std::nth_element(xs.begin(), xs.begin() + mid, xs.end());
    return xs[mid];
}

/** Geometric mean of positive values; 0 when empty. */
inline double
gmean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double acc = 0;
    for (double x : xs)
        acc += std::log(x);
    return std::exp(acc / double(xs.size()));
}

/** One traced interval; @p parent indexes the enclosing span or is -1. */
struct Span {
    std::string name;
    std::string tag; ///< free-form qualifier, e.g. the DUT of a grade
    uint64_t op = 0; ///< identifier shared by the spans of one operation
    uint64_t work = 0; ///< work count done inside the span (cycles, ...)
    int parent = -1;
    double begin_us = 0;
    double end_us = 0;
};

/**
 * Self time of every span: its duration minus the part of its interval
 * that its direct children cover (overlapping children count once;
 * child time outside the parent's interval is ignored).
 */
inline std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> cover(spans.size());
    for (const Span &c : spans)
        if (c.parent >= 0) {
            const Span &p = spans[size_t(c.parent)];
            double b = std::max(c.begin_us, p.begin_us);
            double e = std::min(c.end_us, p.end_us);
            if (e > b)
                cover[size_t(c.parent)].push_back({b, e});
        }
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        auto &iv = cover[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0, reach = spans[i].begin_us;
        for (auto [b, e] : iv) {
            b = std::max(b, reach);
            if (e > b) {
                covered += e - b;
                reach = e;
            }
        }
        self[i] = (spans[i].end_us - spans[i].begin_us) - covered;
    }
    return self;
}

/**
 * Append @p foreign spans — recorded by a profiler that does not link
 * them, on a clock truncated to whole microseconds — to the linked
 * @p spans of one thread. Foreign spans nest among themselves by
 * interval; each outermost one goes under the innermost span of
 * @p spans that contains its midpoint, which tolerates the truncation.
 */
inline void
adopt(std::vector<Span> &spans, std::vector<Span> foreign)
{
    auto outerFirst = [](const Span &a, const Span &b) {
        if (a.begin_us != b.begin_us)
            return a.begin_us < b.begin_us;
        return a.end_us > b.end_us;
    };
    std::sort(foreign.begin(), foreign.end(), outerFirst);
    const size_t base = spans.size();
    std::vector<size_t> open, roots;
    for (size_t i = 0; i < foreign.size(); ++i) {
        while (!open.empty() && foreign[open.back()].end_us < foreign[i].end_us)
            open.pop_back();
        if (open.empty())
            roots.push_back(i);
        else
            foreign[i].parent = int(base + open.back());
        open.push_back(i);
    }

    std::vector<size_t> mine(base);
    for (size_t i = 0; i < base; ++i)
        mine[i] = i;
    std::sort(mine.begin(), mine.end(), [&](size_t a, size_t b) {
        return outerFirst(spans[a], spans[b]);
    });
    auto mid = [&](size_t r) {
        return (foreign[r].begin_us + foreign[r].end_us) / 2;
    };
    std::sort(roots.begin(), roots.end(),
              [&](size_t a, size_t b) { return mid(a) < mid(b); });
    std::vector<size_t> stack;
    size_t next = 0;
    for (size_t r : roots) {
        double m = mid(r);
        for (; next < mine.size() && spans[mine[next]].begin_us <= m; ++next) {
            const Span &x = spans[mine[next]];
            while (!stack.empty() && spans[stack.back()].end_us < x.begin_us)
                stack.pop_back();
            stack.push_back(mine[next]);
        }
        while (!stack.empty() && spans[stack.back()].end_us < m)
            stack.pop_back();
        foreign[r].parent = stack.empty() ? -1 : int(stack.back());
    }
    for (Span &f : foreign)
        spans.push_back(std::move(f));
}

} // namespace perfbench
