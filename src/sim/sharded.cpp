#include "sim/sharded.h"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.h"

namespace ppsc {
namespace sim {

namespace {

// Draw positions for this many pairs before touching any agent slot:
// the position draws are state-independent, so they can all be issued
// first and both slots of every pair prefetched while the RNG works on
// the next ones. Applying the outcomes stays strictly sequential,
// which keeps the chain identical to drawing and applying one at a
// time (pair k's application sees every earlier application).
constexpr std::uint64_t kGroup = 64;

constexpr std::size_t kDefaultShards = 8;

}  // namespace

ShardedSimulator::ShardedSimulator(const PairRuleTable& table,
                                   const core::Config& initial,
                                   std::uint64_t seed,
                                   ShardedOptions options)
    : table_(&table),
      exchange_rng_(seed),
      batch_(std::max<std::uint64_t>(1, options.batch)),
      exchange_shift_(std::min(options.exchange_shift, 63u)),
      counts_(initial.size(), 0) {
  if (initial.size() != table.num_states()) {
    throw std::invalid_argument(
        "ShardedSimulator: configuration dimension does not match table");
  }
  core::Count population = 0;
  for (const core::Count c : initial) {
    if (c < 0) {
      throw std::invalid_argument("ShardedSimulator: negative count");
    }
    population += c;
  }
  const std::size_t n = static_cast<std::size_t>(population);
  const std::size_t num_shards =
      std::max<std::size_t>(1, options.shards == 0 ? kDefaultShards
                                                   : options.shards);
  // The exchange stream lives on the long_jump axis, disjoint from the
  // jump-derived shard streams for any draw budget.
  exchange_rng_.long_jump();

  agents_.resize(n);
  shards_.resize(num_shards);
  std::vector<std::uint32_t*> cursor(num_shards);
  {
    // Slice s holds positions {i : i mod S == s} of the state-major
    // order AgentSimulator uses, made contiguous: sizes differ by at
    // most one and every state's count stripes across the shards in
    // floor/ceil shares -- the proportional initial censuses the
    // mixing argument starts from. At S = 1 this is exactly the
    // state-major fill.
    std::size_t offset = 0;
    for (std::size_t s = 0; s < num_shards; ++s) {
      Shard& shard = shards_[s];
      shard.size = n / num_shards + (s < n % num_shards ? 1 : 0);
      shard.base = agents_.data() + offset;
      cursor[s] = shard.base;
      shard.counts.assign(initial.size(), 0);
      shard.rng = util::Xoshiro256::stream(seed, s);
      offset += static_cast<std::size_t>(shard.size);
    }
  }
  {
    std::size_t dealt = 0;
    for (std::size_t q = 0; q < initial.size(); ++q) {
      for (core::Count k = 0; k < initial[q]; ++k) {
        Shard& shard = shards_[dealt % num_shards];
        *cursor[dealt % num_shards]++ = static_cast<std::uint32_t>(q);
        ++shard.counts[q];
        ++dealt;
      }
    }
  }
  refresh_global();

  unsigned workers = options.workers;
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 1;
  }
  workers = static_cast<unsigned>(
      std::min<std::size_t>(workers, num_shards));
  threads_.reserve(workers - 1);
  for (unsigned w = 1; w < workers; ++w) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ShardedSimulator::~ShardedSimulator() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ShardedSimulator::run_shard_batch(Shard& shard) {
  const std::uint64_t m = shard.size;
  if (m < 2) return;
  std::uint32_t* const slice = shard.base;
  std::uint64_t pi[kGroup];
  std::uint64_t pj[kGroup];
  std::uint64_t remaining = batch_;
  while (remaining > 0) {
    const std::uint64_t group = std::min(remaining, kGroup);
    for (std::uint64_t k = 0; k < group; ++k) {
      // The very draw sequence of AgentSimulator::step, restricted to
      // the slice -- at one shard the two chains consume the RNG
      // identically.
      const std::uint64_t i = shard.rng.below(m);
      std::uint64_t j = shard.rng.below(m - 1);
      if (j >= i) ++j;
      pi[k] = i;
      pj[k] = j;
      __builtin_prefetch(slice + i, 1);
      __builtin_prefetch(slice + j, 1);
    }
    for (std::uint64_t k = 0; k < group; ++k) {
      const PairRuleTable::Outcome* outcome =
          table_->rule(slice[pi[k]], slice[pj[k]]);
      if (outcome == nullptr) continue;
      --shard.counts[slice[pi[k]]];
      --shard.counts[slice[pj[k]]];
      ++shard.counts[outcome->first];
      ++shard.counts[outcome->second];
      slice[pi[k]] = outcome->first;
      slice[pj[k]] = outcome->second;
      ++shard.productive;
    }
    ++shard.batches;
    remaining -= group;
  }
  shard.draws += batch_;
}

void ShardedSimulator::drain_shards() {
  while (true) {
    const std::size_t s = next_shard_.fetch_add(1, std::memory_order_relaxed);
    if (s >= shards_.size()) break;
    run_shard_batch(shards_[s]);
  }
}

void ShardedSimulator::worker_loop() {
  std::uint64_t seen = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&] { return shutdown_ || epoch_gen_ != seen; });
      if (shutdown_) return;
      seen = epoch_gen_;
    }
    drain_shards();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--running_ == 0) cv_done_.notify_one();
    }
  }
}

void ShardedSimulator::exchange() {
  const std::size_t num_shards = shards_.size();
  const std::uint64_t swaps =
      (static_cast<std::uint64_t>(num_shards) * batch_) >> exchange_shift_;
  struct Swap {
    std::uint32_t* a;
    std::uint32_t* b;
    std::size_t s;
    std::size_t t;
  };
  Swap plan[kGroup];
  std::uint64_t remaining = swaps;
  while (remaining > 0) {
    const std::uint64_t group = std::min(remaining, kGroup);
    std::uint64_t planned = 0;
    for (std::uint64_t k = 0; k < group; ++k) {
      const std::size_t s =
          static_cast<std::size_t>(exchange_rng_.below(num_shards));
      std::size_t t =
          static_cast<std::size_t>(exchange_rng_.below(num_shards - 1));
      if (t >= s) ++t;
      const std::uint64_t i = exchange_rng_.below(shards_[s].size);
      const std::uint64_t j = exchange_rng_.below(shards_[t].size);
      // Populations below the shard count leave empty slices; the
      // draws above still consume the stream deterministically.
      if (shards_[s].size == 0 || shards_[t].size == 0) continue;
      Swap& swap = plan[planned++];
      swap.a = shards_[s].base + i;
      swap.b = shards_[t].base + j;
      swap.s = s;
      swap.t = t;
      __builtin_prefetch(swap.a, 1);
      __builtin_prefetch(swap.b, 1);
    }
    for (std::uint64_t k = 0; k < planned; ++k) {
      const Swap& swap = plan[k];
      const std::uint32_t qa = *swap.a;
      const std::uint32_t qb = *swap.b;
      if (qa != qb) {
        *swap.a = qb;
        *swap.b = qa;
        --shards_[swap.s].counts[qa];
        ++shards_[swap.s].counts[qb];
        --shards_[swap.t].counts[qb];
        ++shards_[swap.t].counts[qa];
      }
    }
    remaining -= group;
  }
  cross_swaps_ += swaps;
}

void ShardedSimulator::refresh_global() {
  std::fill(counts_.begin(), counts_.end(), 0);
  steps_ = 0;
  interactions_ = 0;
  prefetch_batches_ = 0;
  for (const Shard& shard : shards_) {
    for (std::size_t q = 0; q < counts_.size(); ++q) {
      counts_[q] += shard.counts[q];
    }
    steps_ += shard.productive;
    interactions_ += shard.draws;
    prefetch_batches_ += shard.batches;
  }
  enabled_pairs_ = 0;
  for (std::size_t q = 0; q < counts_.size(); ++q) {
    // Counts each enabled ordered cell exactly once: cell (a, b) is
    // visited from row a only -- the same sum AgentSimulator maintains
    // incrementally, recomputed exactly at every barrier.
    for (std::uint32_t b : table_->partners(q)) {
      enabled_pairs_ += q == b ? counts_[q] * (counts_[q] - 1)
                               : counts_[q] * counts_[b];
    }
  }
}

bool ShardedSimulator::epoch() {
  if (enabled_pairs_ == 0) return false;
  ++epochs_;
  next_shard_.store(0, std::memory_order_relaxed);
  if (threads_.empty()) {
    for (Shard& shard : shards_) run_shard_batch(shard);
  } else {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++epoch_gen_;
      running_ = static_cast<unsigned>(threads_.size());
    }
    cv_work_.notify_all();
    drain_shards();
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_done_.wait(lock, [&] { return running_ == 0; });
    }
  }
  if (shards_.size() > 1) exchange();
  refresh_global();
  return enabled_pairs_ != 0;
}

std::uint64_t ShardedSimulator::run(std::uint64_t max_steps) {
  while (enabled_pairs_ != 0 && steps_ < max_steps) epoch();
  return steps_;
}

void ShardedSimulator::publish_metrics() const {
  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  if (!registry.enabled()) return;
  registry.add("sim.shard.runs", 1);
  registry.add("sim.shard.epochs", epochs_);
  registry.add("sim.shard.draws", interactions_);
  registry.add("sim.shard.productive", steps_);
  registry.add("sim.shard.batches", prefetch_batches_);
  registry.add("sim.shard.cross_swaps", cross_swaps_);
}

}  // namespace sim
}  // namespace ppsc
