#include "stats.h"

#include <algorithm>
#include <cmath>

namespace nesc::util {

void
Summary::add(double v)
{
    if (count_ == 0) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;
    const double delta = v - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (v - mean_);
}

double
Summary::stddev() const
{
    if (count_ < 2)
        return 0.0;
    return std::sqrt(m2_ / static_cast<double>(count_));
}

void
Sampler::add(double v)
{
    samples_.push_back(v);
    sorted_valid_ = false;
}

double
Sampler::mean() const
{
    if (samples_.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : samples_)
        sum += v;
    return sum / static_cast<double>(samples_.size());
}

void
Sampler::ensure_sorted() const
{
    if (sorted_valid_)
        return;
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
}

double
Sampler::percentile(double p) const
{
    if (samples_.empty())
        return 0.0;
    ensure_sorted();
    if (p <= 0.0)
        return sorted_.front();
    if (p >= 100.0)
        return sorted_.back();
    // Linear interpolation between closest ranks.
    const double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    if (lo + 1 >= sorted_.size())
        return sorted_.back();
    return sorted_[lo] * (1.0 - frac) + sorted_[lo + 1] * frac;
}

} // namespace nesc::util
