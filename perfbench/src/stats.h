// Small measurement helpers: clocks, percentiles, peak RSS, metric output.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/prctl.h>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Lets the calling thread's sleeps end within a few microseconds of their
/// deadline (Linux pads them by a 50 us timer slack by default). Affects
/// only the calling thread and the threads it creates afterwards.
inline void UsePreciseSleeps() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

/// Waits until the steady clock reaches `due_ns`: sleeps while far away,
/// then spins, so the wake-up error is not charged to the open-loop latency
/// of every request.
inline void WaitUntil(int64_t due_ns) {
  constexpr int64_t kSpinNs = 30'000;
  int64_t now = NowNs();
  if (due_ns - now > kSpinNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now - kSpinNs));
  }
  while (NowNs() < due_ns) {
#if defined(__x86_64__)
    __builtin_ia32_pause();
#endif
  }
}

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 if empty.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  size_t k = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  k = std::clamp<size_t>(k, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(k), v.end());
  return v[k];
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// One latency sample, tagged with the due time of the request it times.
struct Sample {
  int64_t due_ns;
  double us;
};

/// Latencies of the samples due at or after `from_ns`, in due order.
inline std::vector<double> Since(std::vector<Sample> s, int64_t from_ns) {
  std::sort(s.begin(), s.end(),
            [](const Sample& a, const Sample& b) { return a.due_ns < b.due_ns; });
  std::vector<double> v;
  for (const Sample& x : s) {
    if (x.due_ns >= from_ns) v.push_back(x.us);
  }
  return v;
}

/// Peak resident set size of this process so far, in MB (VmHWM).
inline double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

/// Ordered (name, value, unit) list printed as the result line's "metrics".
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }

  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  const std::vector<Item>& items() const { return items_; }

  std::string Json() const {
    std::string out = "{";
    char buf[64];
    for (size_t i = 0; i < items_.size(); ++i) {
      double v = std::isfinite(items_[i].value) ? items_[i].value : 0.0;
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      if (i > 0) out += ", ";
      out += "\"" + items_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + items_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<Item> items_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
