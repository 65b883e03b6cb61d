// Zipfian key-popularity generator, YCSB-compatible.
//
// Implements the Gray et al. rejection-free method used by YCSB's
// ZipfianGenerator, plus the scrambled variant that spreads hot keys across
// the keyspace (what YCSB actually uses for workloads A/B).
#pragma once

#include <cmath>
#include <cstdint>

#include "common/fnv.h"
#include "common/rng.h"

namespace dstore {

class ZipfianGenerator {
 public:
  // items: size of the keyspace; theta: skew (YCSB default 0.99).
  explicit ZipfianGenerator(uint64_t items, double theta = 0.99)
      : items_(items), theta_(theta) {
    zetan_ = zeta(items_, theta_);
    zeta2_ = zeta(2, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / (double)items_, 1.0 - theta_)) / (1.0 - zeta2_ / zetan_);
  }

  // Rank in [0, items): 0 is the most popular item.
  uint64_t next(Rng& rng) const {
    double u = rng.next_double();
    double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    return (uint64_t)((double)items_ * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  }

  uint64_t items() const { return items_; }

 private:
  static double zeta(uint64_t n, double theta) {
    double sum = 0;
    for (uint64_t i = 1; i <= n; i++) sum += 1.0 / std::pow((double)i, theta);
    return sum;
  }

  uint64_t items_;
  double theta_;
  double zetan_, zeta2_, alpha_, eta_;
};

// FNV-1a based scrambling so the popular ranks are not clustered at the
// front of the keyspace (YCSB ScrambledZipfianGenerator behaviour).
class ScrambledZipfianGenerator {
 public:
  explicit ScrambledZipfianGenerator(uint64_t items, double theta = 0.99)
      : zipf_(items, theta), items_(items) {}

  uint64_t next(Rng& rng) const { return scramble(zipf_.next(rng)) % items_; }
  uint64_t items() const { return items_; }

 private:
  static uint64_t scramble(uint64_t v) {
    unsigned char le[8];  // v's bytes, least significant first
    for (int i = 0; i < 8; i++) le[i] = (unsigned char)(v >> (i * 8));
    return fnv1a(le, sizeof(le));
  }

  ZipfianGenerator zipf_;
  uint64_t items_;
};

}  // namespace dstore
