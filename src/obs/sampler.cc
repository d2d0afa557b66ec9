#include "sampler.h"

#include <cinttypes>
#include <cstdio>

namespace nesc::obs {

void
TimeSeriesSampler::set_capacity(std::size_t samples)
{
    capacity_ = samples == 0 ? 1 : samples;
    while (series_.size() > capacity_) {
        series_.pop_front();
        ++dropped_;
    }
}

void
TimeSeriesSampler::sample(sim::Time now)
{
    Sample s;
    s.at = now;
    s.counters.resize(registry_.counter_count());
    for (MetricsRegistry::Handle h = 0; h < s.counters.size(); ++h)
        s.counters[h] = registry_.counter_value(h);
    s.gauges.resize(registry_.gauge_count());
    for (MetricsRegistry::Handle h = 0; h < s.gauges.size(); ++h)
        s.gauges[h] = registry_.gauge_value(h);
    series_.push_back(std::move(s));
    ++taken_;
    while (series_.size() > capacity_) {
        series_.pop_front();
        ++dropped_;
    }
}

void
TimeSeriesSampler::clear()
{
    series_.clear();
}

std::string
TimeSeriesSampler::to_json() const
{
    std::string out = "{\"samples\": [";
    char buf[64];
    bool first_sample = true;
    for (const Sample &s : series_) {
        if (!first_sample)
            out += ", ";
        first_sample = false;
        std::snprintf(buf, sizeof buf, "{\"t\": %" PRIu64
                      ", \"counters\": {", s.at);
        out += buf;
        bool first = true;
        for (MetricsRegistry::Handle h = 0; h < s.counters.size(); ++h) {
            if (!first)
                out += ", ";
            first = false;
            out += '"';
            out += registry_.counter_key(h);
            out += "\": ";
            out += std::to_string(s.counters[h]);
        }
        out += "}, \"gauges\": {";
        first = true;
        for (MetricsRegistry::Handle h = 0; h < s.gauges.size(); ++h) {
            if (!first)
                out += ", ";
            first = false;
            out += '"';
            out += registry_.gauge_key(h);
            out += "\": ";
            out += std::to_string(s.gauges[h]);
        }
        out += "}}";
    }
    std::snprintf(buf, sizeof buf,
                  "], \"taken\": %" PRIu64 ", \"dropped\": %" PRIu64 "}",
                  taken_, dropped_);
    out += buf;
    return out;
}

} // namespace nesc::obs
