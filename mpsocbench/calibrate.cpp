#include "calibrate.hpp"

#include <chrono>
#include <memory>
#include <vector>

namespace mpsocbench {
namespace {

// Cycles per pass; about 15 ms on the reference host.
constexpr int kCycles = 20000;
constexpr int kChains = 12;
constexpr int kHopsPerChain = 4;

class Fifo {
 public:
  bool push(std::uint32_t v) {
    if (n_ == kDepth) return false;
    buf_[(head_ + n_++) % kDepth] = v;
    return true;
  }
  bool pop(std::uint32_t& v) {
    if (n_ == 0) return false;
    v = buf_[head_];
    head_ = (head_ + 1) % kDepth;
    --n_;
    return true;
  }

 private:
  static constexpr unsigned kDepth = 8;
  std::uint32_t buf_[kDepth] = {};
  unsigned head_ = 0;
  unsigned n_ = 0;
};

class Stage {
 public:
  virtual ~Stage() = default;
  virtual void evaluate(std::uint64_t& rng) = 0;
  virtual void commit() = 0;
};

class Source : public Stage {
 public:
  explicit Source(Fifo& out) : out_(out) {}
  void evaluate(std::uint64_t& rng) override {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    if ((rng >> 40) & 3) {
      next_ = static_cast<std::uint32_t>(rng >> 33);
      pending_ = true;
    }
  }
  void commit() override {
    if (pending_ && out_.push(next_)) pending_ = false;
  }

 private:
  Fifo& out_;
  std::uint32_t next_ = 0;
  bool pending_ = false;
};

class Hop : public Stage {
 public:
  Hop(Fifo& in, Fifo& out) : in_(in), out_(out) {}
  void evaluate(std::uint64_t& rng) override {
    if (!full_ && in_.pop(v_)) full_ = true;
    if (full_ && ((v_ ^ rng) & 1)) acc_ += v_ * 2654435761u;
    rng ^= acc_;
  }
  void commit() override {
    if (full_ && out_.push(v_)) full_ = false;
  }

 private:
  Fifo& in_;
  Fifo& out_;
  std::uint32_t v_ = 0;
  bool full_ = false;
  std::uint64_t acc_ = 0;
};

class Sink : public Stage {
 public:
  explicit Sink(Fifo& in) : in_(in) {}
  void evaluate(std::uint64_t& rng) override {
    std::uint32_t v;
    if (in_.pop(v)) {
      sum_ += v;
      if (v & 1) rng += sum_;
    }
  }
  void commit() override {}

 private:
  Fifo& in_;
  std::uint64_t sum_ = 0;
};

}  // namespace

CalibrationPass calibrationPass() {
  std::vector<std::unique_ptr<Fifo>> fifos;
  std::vector<std::unique_ptr<Stage>> stages;
  auto fifo = [&] { return fifos.emplace_back(std::make_unique<Fifo>()).get(); };
  for (int c = 0; c < kChains; ++c) {
    Fifo* prev = fifo();
    stages.push_back(std::make_unique<Source>(*prev));
    for (int h = 0; h < kHopsPerChain; ++h) {
      Fifo* next = fifo();
      stages.push_back(std::make_unique<Hop>(*prev, *next));
      prev = next;
    }
    stages.push_back(std::make_unique<Sink>(*prev));
  }
  std::uint64_t rng = 12345;
  const auto t0 = std::chrono::steady_clock::now();
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    for (auto& s : stages) s->evaluate(rng);
    for (auto& s : stages) s->commit();
  }
  CalibrationPass pass;
  pass.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  pass.checksum = rng;
  return pass;
}

}  // namespace mpsocbench
