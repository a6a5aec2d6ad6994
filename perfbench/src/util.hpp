// Clocks, process probes, seeded randomness and percentile helpers shared by
// the generator, the checker and the report.
#pragma once

#include <dirent.h>
#include <pthread.h>
#include <sched.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

/// CLOCK_MONOTONIC in nanoseconds: the one clock every timestamp in the
/// benchmark (generator sends, receives, gateway-side spans) is read from.
inline std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

inline std::int64_t cpu_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
inline std::int64_t thread_cpu_ns() { return cpu_ns(CLOCK_THREAD_CPUTIME_ID); }
inline std::int64_t process_cpu_ns() {
  return cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
}

/// Resident set size in bytes (/proc/self/statm).
inline std::uint64_t rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

/// Inodes of every socket this process holds open (/proc/self/fd).
inline std::set<std::uint64_t> process_socket_inodes() {
  std::set<std::uint64_t> inodes;
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return inodes;
  while (dirent* entry = readdir(dir)) {
    char path[300];
    char link[64];
    std::snprintf(path, sizeof(path), "/proc/self/fd/%s", entry->d_name);
    ssize_t n = readlink(path, link, sizeof(link) - 1);
    if (n <= 0) continue;
    link[n] = '\0';
    unsigned long long inode = 0;
    if (std::sscanf(link, "socket:[%llu]", &inode) == 1) inodes.insert(inode);
  }
  closedir(dir);
  return inodes;
}

inline std::uint64_t socket_inode(int fd) {
  struct stat st {};
  return fstat(fd, &st) == 0 ? st.st_ino : 0;
}

/// One row of /proc/net/udp: local port, socket inode, kernel drop count.
struct UdpRow {
  unsigned port = 0;
  std::uint64_t inode = 0;
  std::uint64_t drops = 0;
};

inline std::vector<UdpRow> udp_table() {
  std::vector<UdpRow> rows;
  std::FILE* f = std::fopen("/proc/net/udp", "r");
  if (f == nullptr) return rows;
  char line[512];
  bool header = true;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (header) {
      header = false;
      continue;
    }
    // sl local rem st tx:rx tr:when retrnsmt uid timeout inode ref ptr drops
    char local[64];
    unsigned long long inode = 0;
    unsigned long long drops = 0;
    if (std::sscanf(line,
                    " %*s %63s %*s %*s %*s %*s %*s %*s %*s %llu %*s %*s %llu",
                    local, &inode, &drops) != 3) {
      continue;
    }
    const char* colon = std::strchr(local, ':');
    if (colon == nullptr) continue;
    UdpRow row;
    row.port = static_cast<unsigned>(std::strtoul(colon + 1, nullptr, 16));
    row.inode = inode;
    row.drops = drops;
    rows.push_back(row);
  }
  std::fclose(f);
  return rows;
}

/// TcpExt ListenOverflows of the network namespace (/proc/net/netstat): SYNs
/// or handshake ACKs a listener dropped because its accept queue was full.
/// The client then waits for a retransmission (1 s for a SYN).
inline std::uint64_t listen_overflows() {
  std::FILE* f = std::fopen("/proc/net/netstat", "r");
  if (f == nullptr) return 0;
  char names[4096];
  char values[4096];
  std::uint64_t result = 0;
  while (std::fgets(names, sizeof(names), f) != nullptr &&
         std::fgets(values, sizeof(values), f) != nullptr) {
    if (std::strncmp(names, "TcpExt:", 7) != 0) continue;
    char* name_save = nullptr;
    char* value_save = nullptr;
    char* name = strtok_r(names, " \n", &name_save);
    char* value = strtok_r(values, " \n", &value_save);
    while (name != nullptr && value != nullptr) {
      if (std::strcmp(name, "ListenOverflows") == 0) {
        result = std::strtoull(value, nullptr, 10);
      }
      name = strtok_r(nullptr, " \n", &name_save);
      value = strtok_r(nullptr, " \n", &value_save);
    }
  }
  std::fclose(f);
  return result;
}

/// Restricts the calling thread to CPU 0 (`generator` true) or to every
/// other CPU (threads it creates inherit the set). No-op on one CPU.
inline void pin_thread(bool generator) {
  long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  if (cpus < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (generator) {
    CPU_SET(0, &set);
  } else {
    for (long c = 1; c < cpus && c < CPU_SETSIZE; ++c) CPU_SET(c, &set);
  }
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// splitmix64: the benchmark's only randomness source, seeded by --seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Zipf(s) over ranks [0, n): rank 0 is the most popular.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t sample(Rng& rng) const {
    double u = rng.unit();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// Nearest-rank percentile of an unsorted sample (sorts in place); 0 when
/// empty.
inline double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  std::size_t index = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(index, v.size() - 1)];
}

inline double median_of(std::vector<double> v) { return percentile(v, 50); }

}  // namespace perfbench
