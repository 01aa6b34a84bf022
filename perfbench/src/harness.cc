#include "harness.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "serving/clock.h"

namespace perfbench {

int64_t NowNanos() { return slime::serving::Clock::Default()->NowNanos(); }

double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(v.size())));
  return v[index - 1];
}

double Median(const std::vector<double>& v) {
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

std::string LatencySummary::Describe(const std::string& unit) const {
  char buf[160];
  if (tail_level > 0.0) {
    std::snprintf(buf, sizeof(buf), "p50 %.4f %s, p%g %.4f %s, n=%lld", p50,
                  unit.c_str(), tail_level, tail, unit.c_str(),
                  static_cast<long long>(samples));
  } else {
    std::snprintf(buf, sizeof(buf),
                  "p50 %.4f %s, n=%lld (too few samples for a tail)", p50,
                  unit.c_str(), static_cast<long long>(samples));
  }
  return buf;
}

LatencySummary Summarize(const std::vector<double>& values) {
  LatencySummary s;
  s.samples = static_cast<int64_t>(values.size());
  if (values.empty()) return s;
  s.p50 = Median(values);
  for (double level : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    const double beyond =
        static_cast<double>(values.size()) * (1.0 - level / 100.0);
    if (beyond >= 10.0) {
      s.tail_level = level;
      s.tail = Quantile(values, level / 100.0);
      break;
    }
  }
  return s;
}

void Checks::Expect(bool ok, const std::string& what) {
  if (ok) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++failures_;
  std::printf("CHECK FAILED: %s\n", what.c_str());
  std::fflush(stdout);
}

int32_t SpanLog::Begin(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start = NowNanos();
  spans_.push_back(std::move(s));
  const int32_t index = static_cast<int32_t>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanLog::End(int32_t span) {
  const int64_t now = NowNanos();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(span)].end = now;
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

void SpanLog::AddTree(const std::vector<Span>& tree, int64_t lane) {
  std::lock_guard<std::mutex> lock(mu_);
  const int32_t base = static_cast<int32_t>(spans_.size());
  for (Span s : tree) {
    if (s.parent >= 0) s.parent += base;
    s.lane = lane;
    spans_.push_back(std::move(s));
  }
}

void SpanLog::ImportTraces(const std::vector<slime::obs::Trace>& traces,
                           const std::string& prefix, int64_t first_lane) {
  std::vector<int64_t> lane_free_at;  // end time of each lane's last trace
  for (const slime::obs::Trace& trace : traces) {
    if (trace.spans.empty()) continue;
    const int64_t start = trace.spans.front().start_nanos;
    size_t lane = 0;
    while (lane < lane_free_at.size() && lane_free_at[lane] > start) ++lane;
    if (lane == lane_free_at.size()) lane_free_at.push_back(0);
    std::vector<Span> tree;
    tree.reserve(trace.spans.size());
    int64_t end = start;
    for (const slime::obs::SpanRecord& r : trace.spans) {
      Span s;
      s.name = prefix + r.name;
      s.start = r.start_nanos;
      s.end = r.end_nanos;
      s.parent = r.parent;
      end = std::max(end, r.end_nanos);
      tree.push_back(std::move(s));
    }
    lane_free_at[lane] = end;
    AddTree(tree, first_lane + static_cast<int64_t>(lane));
  }
}

std::vector<double> SpanLog::DurationsUs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(NanosToUs(s.end - s.start));
  }
  return out;
}

std::map<std::string, SpanStats> SpanLog::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<int32_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<size_t>(spans_[i].parent)].push_back(
          static_cast<int32_t>(i));
    }
  }
  std::map<std::string, SpanStats> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to the parent's.
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (int32_t c : children[i]) {
      const Span& k = spans_[static_cast<size_t>(c)];
      const int64_t lo = std::max(k.start, s.start);
      const int64_t hi = std::min(k.end, s.end);
      if (hi > lo) iv.emplace_back(lo, hi);
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_lo = 0;
    int64_t cur_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (cur_hi < lo) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    SpanStats& st = out[s.name];
    ++st.count;
    st.total_nanos += s.end - s.start;
    st.self_nanos += (s.end - s.start) - covered;
    st.durations_us.push_back(NanosToUs(s.end - s.start));
  }
  return out;
}

bool SpanLog::WriteChromeTrace(const std::string& path,
                               const std::string& process_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream f(path);
  if (!f) return false;
  int64_t origin = 0;
  bool first_span = true;
  for (const Span& s : spans_) {
    if (first_span || s.start < origin) origin = s.start;
    first_span = false;
  }
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  f << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
       "\"args\":{\"name\":\""
    << JsonEscape(process_name) << "\"}}";
  char buf[96];
  for (const Span& s : spans_) {
    const size_t dot = s.name.find('.');
    const std::string cat = dot == std::string::npos ? s.name
                                                     : s.name.substr(0, dot);
    std::snprintf(buf, sizeof(buf), "\"ts\":%.3f,\"dur\":%.3f",
                  (s.start - origin) / 1e3, (s.end - s.start) / 1e3);
    f << ",\n{\"name\":\"" << JsonEscape(s.name) << "\",\"cat\":\""
      << JsonEscape(cat) << "\",\"ph\":\"X\"," << buf
      << ",\"pid\":1,\"tid\":" << s.lane << "}";
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, const std::string& detail) {
  metrics_.push_back({name, value, unit, detail});
  std::printf("metric %-34s %14s %-9s %s\n", name.c_str(),
              FormatDouble(value).c_str(), unit.c_str(), detail.c_str());
  std::fflush(stdout);
}

void Report::Info(const std::string& name, double value,
                  const std::string& unit, const std::string& detail) {
  infos_.push_back({name, value, unit, detail});
  std::printf("info   %-34s %14s %-9s %s\n", name.c_str(),
              FormatDouble(value).c_str(), unit.c_str(), detail.c_str());
  std::fflush(stdout);
}

void Report::Note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

void Report::CountOps(int64_t attempted, int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

bool Report::WriteDetails(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  const auto entries = [&f](const std::vector<Entry>& list) {
    f << "[";
    for (size_t i = 0; i < list.size(); ++i) {
      const Entry& e = list[i];
      f << (i ? ",\n  " : "\n  ") << "{\"name\":\"" << JsonEscape(e.name)
        << "\",\"value\":" << FormatDouble(e.value) << ",\"unit\":\""
        << JsonEscape(e.unit) << "\",\"detail\":\"" << JsonEscape(e.detail)
        << "\"}";
    }
    f << "]";
  };
  f << "{\"notes\":{";
  for (size_t i = 0; i < notes_.size(); ++i) {
    f << (i ? "," : "") << "\n  \"" << JsonEscape(notes_[i].first)
      << "\":\"" << JsonEscape(notes_[i].second) << "\"";
  }
  f << "},\n\"attempted\":" << attempted_ << ",\"failed\":" << failed_
    << ",\n\"metrics\":";
  entries(metrics_);
  f << ",\n\"info\":";
  entries(infos_);
  f << "}\n";
  return static_cast<bool>(f);
}

std::string Report::FinalLine(bool correct) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& e = metrics_[i];
    out += (i ? ", \"" : "\"") + JsonEscape(e.name) +
           "\": {\"value\": " + FormatDouble(e.value) + ", \"unit\": \"" +
           JsonEscape(e.unit) + "\"}";
  }
  out += "}}";
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
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
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string FormatDouble(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::vector<double> RepeatUs(const std::function<void()>& fn, int min_reps,
                             double min_seconds, int max_reps) {
  fn();  // warm-up: first-touch allocation, plan caches
  std::vector<double> out;
  int64_t spent = 0;
  while (static_cast<int>(out.size()) < max_reps &&
         (static_cast<int>(out.size()) < min_reps ||
          spent < static_cast<int64_t>(min_seconds * 1e9))) {
    const int64_t t0 = NowNanos();
    fn();
    const int64_t dt = NowNanos() - t0;
    spent += dt;
    out.push_back(NanosToUs(dt));
  }
  return out;
}

}  // namespace perfbench
