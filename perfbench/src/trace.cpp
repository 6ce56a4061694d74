#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

namespace perfbench {
namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
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
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

double Tracer::us(std::chrono::steady_clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - origin_).count();
}

int Tracer::add(std::string name, double start_us, double end_us, int parent,
                std::string id, int lane) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(
      Span{std::move(name), start_us, end_us, parent, std::move(id), lane});
  return static_cast<int>(spans_.size() - 1);
}

double Tracer::self_us(std::size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return self_us_locked(index);
}

double Tracer::self_us_locked(std::size_t index) const {
  const Span& span = spans_.at(index);
  std::vector<std::pair<double, double>> covered;
  for (const Span& child : spans_) {
    if (child.parent != static_cast<int>(index)) {
      continue;
    }
    const double lo = std::max(child.start_us, span.start_us);
    const double hi = std::min(child.end_us, span.end_us);
    if (hi > lo) {
      covered.emplace_back(lo, hi);
    }
  }
  std::sort(covered.begin(), covered.end());
  double children = 0;
  double reach = span.start_us;
  for (const auto& [lo, hi] : covered) {
    const double from = std::max(lo, reach);
    if (hi > from) {
      children += hi - from;
      reach = hi;
    }
  }
  return span.duration_us() - children;
}

std::map<std::string, Tracer::NameTotals> Tracer::totals_by_name() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, NameTotals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    NameTotals& t = totals[spans_[i].name];
    t.total_us += spans_[i].duration_us();
    t.self_us += self_us_locked(i);
    ++t.count;
  }
  return totals;
}

std::string Tracer::chrome_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<Span>& all = spans_;
  std::ostringstream out;
  out.precision(3);
  out << std::fixed << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << json_escape(s.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane
        << ",\"ts\":" << s.start_us << ",\"dur\":" << s.duration_us()
        << ",\"args\":{\"id\":\"" << json_escape(s.id)
        << "\",\"span\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out.str();
}

}  // namespace perfbench
