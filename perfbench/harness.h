// Measurement helpers for the LSBench benchmark: wall-clock timing,
// order statistics, an in-memory span log and JSON output.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample; 0 for
// an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// Spans recorded by the benchmark around its calls into the engine. Kept in
// memory during the run and written out once at the end, so the traced run
// pays only two clock reads and a vector append per span.
class SpanLog {
 public:
  struct Span {
    const char* name;  // A string literal: recording allocates nothing.
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  bool enabled() const { return enabled_; }
  // Spans are recorded only while enabled; open spans must be closed first.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  int Begin(const char* name) {
    if (!enabled_) {
      return -1;
    }
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, NowSec(), 0.0, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int id) {
    if (id < 0) {
      return;
    }
    spans_[static_cast<size_t>(id)].end = NowSec();
    open_.pop_back();
  }

  // Per-name {total seconds, self seconds, count}; self time is a span's
  // duration minus the time its direct children cover.
  struct Totals {
    double total_s = 0.0;
    double self_s = 0.0;
    size_t count = 0;
  };
  std::map<std::string, Totals> ByName() const {
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_s[static_cast<size_t>(s.parent)] += s.end - s.start;
      }
    }
    std::map<std::string, Totals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      Totals& t = out[spans_[i].name];
      const double d = spans_[i].end - spans_[i].start;
      t.total_s += d;
      t.self_s += d - child_s[i];
      ++t.count;
    }
    return out;
  }

  // Chrome trace-event JSON ("X" events, microseconds from the first span).
  bool WriteChromeTrace(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    std::fprintf(f, "{\"traceEvents\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                   i == 0 ? "" : ",", s.name, (s.start - t0) * 1e6,
                   (s.end - s.start) * 1e6, i, s.parent);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name) : log_(log), id_(log->Begin(name)) {}
  ~ScopedSpan() { log_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

// Ordered name -> (value, unit) map printed as the result's "metrics".
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics_.push_back({name, value, unit});
  }

  std::string ToJson() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char buf[96];
      // %.17g keeps every digit the measurement has.
      std::snprintf(buf, sizeof(buf), "%.17g",
                    std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0);
      out += (i == 0 ? "" : ", ");
      out += "\"" + metrics_[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             metrics_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
