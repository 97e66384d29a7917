// Shared pieces of the durbench client: the seeded workload shape and
// generator (key names, value derivation, key choice) and a flat JSON
// writer. Every input the daemons see is derived here from the seed, so the
// same seed replays the same keys, values and operation order per
// connection.

#ifndef DURBENCH_BENCH_H_
#define DURBENCH_BENCH_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "loadgen/loadgen.h"

namespace durbench {

inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

enum class Workload { kWriteHeavy, kReadMostly };

// The fixed shape of each workload. Keys [0, read_keys) are what GETs
// address; SETs address [write_base, write_base + write_keys). For
// write_heavy the two ranges coincide; for read_mostly the writer's range
// sits after the readers' so the readers never park behind a write (§3.2
// key hazards).
struct Shape {
  Workload workload = Workload::kWriteHeavy;
  uint64_t seed = 1;
  uint32_t read_keys = 0;
  uint32_t write_base = 0;
  uint32_t write_keys = 0;
  int connections = 0;  // total client connections (= client threads)
  int pipeline = 0;     // commands per batch on a loaded connection
  size_t value_bytes = 100;

  uint32_t total_keys() const {
    return std::max(read_keys, write_base + write_keys);
  }
};

inline bool MakeShape(const std::string& workload, uint64_t seed, Shape* out) {
  Shape s;
  s.seed = seed;
  if (workload == "write_heavy") {
    s.workload = Workload::kWriteHeavy;
    s.read_keys = 100000;
    s.write_base = 0;
    s.write_keys = 100000;
    s.connections = 4;
    s.pipeline = 16;  // 8 SET + 8 GET per batch, shuffled
  } else if (workload == "read_mostly") {
    // 50K reader keys, not more: the server's active-expiry pass walks the
    // whole keyspace every 100 ms, and at 200K keys that memory-bound walk
    // made throughput track the host's cache contention (ops_s IQR/median
    // 0.19 at 200K vs 0.08 at 50K over seven interleaved runs each).
    s.workload = Workload::kReadMostly;
    s.read_keys = 50000;
    s.write_base = 50000;
    s.write_keys = 20000;
    s.connections = 4;  // 3 pipelined readers + 1 single-SET writer
    s.pipeline = 32;
  } else {
    return false;
  }
  *out = s;
  return true;
}

// Seed-dependent names: 'k' + 16 hex digits, unique per index.
inline std::string KeyName(uint64_t seed, uint32_t idx) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "k%016llx",
                static_cast<unsigned long long>(
                    Mix64(Mix64(seed) ^ (0x100000000ULL + idx))));
  return buf;
}

// The value written to key `idx` by its `version`-th SET (0 = prefill):
// a fixed-width header naming key and version, then seeded filler. A GET
// reply is correct iff it equals MakeValue for the version its header
// names.
inline std::string MakeValue(const Shape& s, uint32_t idx, uint32_t version) {
  std::string v(s.value_bytes, ' ');
  char head[24];
  const int n = std::snprintf(head, sizeof(head), "K%08xV%08x:", idx, version);
  v.replace(0, static_cast<size_t>(n), head, static_cast<size_t>(n));
  uint64_t x = Mix64(s.seed ^ (static_cast<uint64_t>(idx) << 32) ^ version);
  for (size_t i = static_cast<size_t>(n); i < v.size(); ++i) {
    if ((i & 7) == 0) x = Mix64(x);
    v[i] = static_cast<char>('a' + (x >> ((i & 7) * 8)) % 26);
  }
  return v;
}

// Parses the header MakeValue writes. False if `v` is not one of ours.
inline bool ParseValue(const std::string& v, uint32_t* idx,
                       uint32_t* version) {
  unsigned a = 0, b = 0;
  if (v.size() < 19 || v[0] != 'K' || v[9] != 'V' || v[18] != ':' ||
      std::sscanf(v.c_str(), "K%8xV%8x:", &a, &b) != 2) {
    return false;
  }
  *idx = a;
  *version = b;
  return true;
}

// Zipfian key choice for read_mostly's readers: the repository's YCSB
// generator picks a rank, and a seeded affine permutation maps it onto the
// keyspace so the hot set moves with the seed.
class ZipfKeys {
 public:
  ZipfKeys(uint32_t n, double theta, uint64_t seed) : zipf_(n, theta), n_(n) {
    a_ = (Mix64(seed ^ 0xa11ce) % n) | 1;
    while (Gcd(a_, n) != 1) a_ += 2;
    b_ = Mix64(seed ^ 0xb0b) % n;
  }
  uint32_t Next(memdb::Rng& rng) const {
    return static_cast<uint32_t>((zipf_.Next(rng) * a_ + b_) % n_);
  }

 private:
  static uint64_t Gcd(uint64_t a, uint64_t b) {
    while (b != 0) a = std::exchange(b, a % b);
    return a;
  }
  memdb::loadgen::ZipfianGenerator zipf_;
  uint64_t n_;
  uint64_t a_ = 1;
  uint64_t b_ = 0;
};

// Flat JSON object writer for the client's one-line replies.
class Json {
 public:
  Json& Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return Raw(key, buf);
  }
  Json& Int(const std::string& key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  Json& Str(const std::string& key, const std::string& v) {
    return Raw(key, Quote(v));
  }
  Json& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  Json& Raw(const std::string& key, const std::string& json) {
    body_ += body_.empty() ? "{" : ",";
    body_ += Quote(key) + ":" + json;
    return *this;
  }
  std::string Done() const { return body_.empty() ? "{}" : body_ + "}"; }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

}  // namespace durbench

#endif  // DURBENCH_BENCH_H_
