#include "obs/metrics.h"

#include <cmath>
#include <cstdio>

namespace nesc::obs {

double
LogHistogram::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    // Written as !(p > 0) so NaN also resolves to the minimum instead
    // of falling through to the bucket scan with a NaN rank.
    if (!(p > 0.0))
        return static_cast<double>(min());
    if (p >= 100.0)
        return static_cast<double>(max_);
    const double rank = p / 100.0 * static_cast<double>(count_);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
        seen += buckets_[b];
        if (static_cast<double>(seen) >= rank) {
            // Bucket b holds values in [2^(b-1), 2^b); use the
            // geometric midpoint, clamped to the observed range.
            const double lo = b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b) - 1);
            const double hi = std::ldexp(1.0, static_cast<int>(b));
            double v = b == 0 ? 0.0 : std::sqrt(lo * hi);
            if (v < static_cast<double>(min()))
                v = static_cast<double>(min());
            if (v > static_cast<double>(max_))
                v = static_cast<double>(max_);
            return v;
        }
    }
    return static_cast<double>(max_);
}

namespace {

MetricsRegistry::Handle
intern(std::map<std::pair<std::string, std::uint16_t>,
                MetricsRegistry::Handle> &index,
       std::vector<std::uint64_t> *values, std::string_view name,
       std::uint16_t scope, std::size_t current_size)
{
    auto [it, inserted] = index.try_emplace(
        {std::string(name), scope},
        static_cast<MetricsRegistry::Handle>(current_size));
    if (inserted && values != nullptr)
        values->push_back(0);
    return it->second;
}

std::string
scoped_name(const std::string &name, std::uint16_t scope)
{
    if (scope == kGlobalScope)
        return name;
    return "fn" + std::to_string(scope) + "/" + name;
}

void
append_json_string(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

/** Prometheus metric name: "nesc_" + name with [^a-zA-Z0-9_] -> '_'. */
std::string
prometheus_name(const std::string &name)
{
    std::string out = "nesc_";
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        out += ok ? c : '_';
    }
    return out;
}

/** `{fn="N"}` label set for scoped metrics, empty for global ones. */
std::string
prometheus_labels(std::uint16_t scope)
{
    if (scope == kGlobalScope)
        return "";
    return "{fn=\"" + std::to_string(scope) + "\"}";
}

} // namespace

MetricsRegistry::Handle
MetricsRegistry::counter(std::string_view name, std::uint16_t scope)
{
    const Handle h = intern(counter_index_, &counter_values_, name, scope,
                            counter_values_.size());
    if (h == counter_meta_.size())
        counter_meta_.push_back({std::string(name), scope});
    return h;
}

MetricsRegistry::Handle
MetricsRegistry::gauge(std::string_view name, std::uint16_t scope)
{
    const Handle h = intern(gauge_index_, &gauge_values_, name, scope,
                            gauge_values_.size());
    if (h == gauge_meta_.size())
        gauge_meta_.push_back({std::string(name), scope});
    return h;
}

MetricsRegistry::Handle
MetricsRegistry::histogram(std::string_view name, std::uint16_t scope)
{
    const Handle h = intern(histogram_index_, nullptr, name, scope,
                            histogram_values_.size());
    if (h == histogram_values_.size()) {
        histogram_values_.emplace_back();
        histogram_meta_.push_back({std::string(name), scope});
    }
    return h;
}

std::uint64_t
MetricsRegistry::get(std::string_view name) const
{
    const auto it =
        counter_index_.find({std::string(name), kGlobalScope});
    return it == counter_index_.end() ? 0 : counter_values_[it->second];
}

std::string
MetricsRegistry::to_string() const
{
    // counter_index_ is name-ordered.
    std::string out;
    for (const auto &[key, handle] : counter_index_) {
        if (key.second != kGlobalScope)
            continue;
        if (!out.empty())
            out += ' ';
        out += key.first;
        out += '=';
        out += std::to_string(counter_values_[handle]);
    }
    return out;
}

std::string
MetricsRegistry::to_json() const
{
    std::string out = "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[key, handle] : counter_index_) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        append_json_string(out, scoped_name(key.first, key.second));
        out += ": " + std::to_string(counter_values_[handle]);
    }
    out += "\n  },\n  \"gauges\": {";
    first = true;
    for (const auto &[key, handle] : gauge_index_) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        append_json_string(out, scoped_name(key.first, key.second));
        out += ": " + std::to_string(gauge_values_[handle]);
    }
    out += "\n  },\n  \"histograms\": {";
    first = true;
    for (const auto &[key, handle] : histogram_index_) {
        const LogHistogram &h = histogram_values_[handle];
        out += first ? "\n    " : ",\n    ";
        first = false;
        append_json_string(out, scoped_name(key.first, key.second));
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      ": {\"count\": %llu, \"sum\": %llu, "
                      "\"mean\": %.4f, \"min\": %llu, \"max\": %llu, "
                      "\"p50\": %.1f, \"p99\": %.1f}",
                      static_cast<unsigned long long>(h.count()),
                      static_cast<unsigned long long>(h.sum()), h.mean(),
                      static_cast<unsigned long long>(h.min()),
                      static_cast<unsigned long long>(h.max()),
                      h.percentile(50.0), h.percentile(99.0));
        out += buf;
    }
    out += "\n  }\n}\n";
    return out;
}

std::string
MetricsRegistry::to_prometheus() const
{
    // The index maps are ordered by (name, scope), so every sample of
    // a family is adjacent and each family gets exactly one TYPE line.
    std::string out;
    std::string family;
    for (const auto &[key, handle] : counter_index_) {
        const std::string name = prometheus_name(key.first);
        if (name != family) {
            family = name;
            out += "# TYPE " + name + " counter\n";
        }
        out += name + prometheus_labels(key.second) + " " +
               std::to_string(counter_values_[handle]) + "\n";
    }
    family.clear();
    for (const auto &[key, handle] : gauge_index_) {
        const std::string name = prometheus_name(key.first);
        if (name != family) {
            family = name;
            out += "# TYPE " + name + " gauge\n";
        }
        out += name + prometheus_labels(key.second) + " " +
               std::to_string(gauge_values_[handle]) + "\n";
    }
    family.clear();
    for (const auto &[key, handle] : histogram_index_) {
        const LogHistogram &h = histogram_values_[handle];
        const std::string name = prometheus_name(key.first);
        if (name != family) {
            family = name;
            out += "# TYPE " + name + " summary\n";
        }
        const std::string labels = prometheus_labels(key.second);
        // Quantile samples carry the quantile label next to any fn
        // label: nesc_x{fn="3",quantile="0.5"}.
        const std::string open =
            labels.empty() ? "{" : labels.substr(0, labels.size() - 1) + ",";
        static constexpr struct {
            const char *label;
            double p;
        } kQuantiles[] = {
            {"0.5", 50.0}, {"0.99", 99.0}, {"0.999", 99.9}};
        char buf[64];
        for (const auto &q : kQuantiles) {
            std::snprintf(buf, sizeof buf, " %.6g\n", h.percentile(q.p));
            out += name + open + "quantile=\"" + q.label + "\"}" + buf;
        }
        out += name + "_sum" + labels + " " + std::to_string(h.sum()) +
               "\n";
        out += name + "_count" + labels + " " +
               std::to_string(h.count()) + "\n";
    }
    return out;
}

std::string
MetricsRegistry::counter_key(Handle h) const
{
    if (h >= counter_meta_.size())
        return "";
    return scoped_name(counter_meta_[h].name, counter_meta_[h].scope);
}

std::string
MetricsRegistry::gauge_key(Handle h) const
{
    if (h >= gauge_meta_.size())
        return "";
    return scoped_name(gauge_meta_[h].name, gauge_meta_[h].scope);
}

void
MetricsRegistry::reset_values()
{
    for (auto &v : counter_values_)
        v = 0;
    for (auto &v : gauge_values_)
        v = 0;
    for (auto &h : histogram_values_)
        h.reset();
}

} // namespace nesc::obs
