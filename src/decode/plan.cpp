#include "decode/plan.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/cpu.h"
#include "gf/galois_field.h"
#include "matrix/solve.h"

namespace ppm {

namespace {

// Shared front half of planning: restrict h to `rows`, split columns into
// F (unknowns) and S (survivors = nonzero columns not excluded), select an
// invertible row subset and invert. Returns false when unsolvable.
struct Prepared {
  std::vector<std::size_t> survivors;
  std::vector<std::size_t> h_rows;  // selected rows, as indices into h
  Matrix finv;
  Matrix s_used;
};

std::optional<Prepared> prepare(const Matrix& h,
                                std::span<const std::size_t> rows,
                                std::span<const std::size_t> unknowns,
                                std::span<const std::size_t> excluded) {
  const Matrix sub = h.select_rows(rows);

  std::vector<std::size_t> survivors;
  for (std::size_t c = 0; c < sub.cols(); ++c) {
    if (std::binary_search(excluded.begin(), excluded.end(), c)) continue;
    if (!sub.column_is_zero(c)) survivors.push_back(c);
  }

  const Matrix f_tall = sub.select_columns(unknowns);
  const auto rowsel = independent_rows(f_tall);
  if (!rowsel.has_value()) return std::nullopt;

  const Matrix f_square = f_tall.select_rows(*rowsel);
  auto finv = f_square.inverse();
  if (!finv.has_value()) return std::nullopt;  // unreachable after rowsel

  std::vector<std::size_t> h_rows(rowsel->size());
  for (std::size_t i = 0; i < rowsel->size(); ++i) {
    h_rows[i] = rows[(*rowsel)[i]];
  }

  Matrix s_used = sub.select_columns(survivors).select_rows(*rowsel);
  return Prepared{std::move(survivors), std::move(h_rows), std::move(*finv),
                  std::move(s_used)};
}

}  // namespace

std::optional<SubPlan> SubPlan::make(const Matrix& h,
                                     std::span<const std::size_t> rows,
                                     std::span<const std::size_t> unknowns,
                                     std::span<const std::size_t> excluded,
                                     Sequence seq) {
  auto prep = prepare(h, rows, unknowns, excluded);
  if (!prep.has_value()) return std::nullopt;

  SubPlan plan(h.field(), seq);
  plan.unknowns_.assign(unknowns.begin(), unknowns.end());
  plan.survivors_ = std::move(prep->survivors);
  plan.rows_ = std::move(prep->h_rows);
  if (seq == Sequence::kNormal) {
    plan.cost_ = prep->finv.nonzeros() + prep->s_used.nonzeros();
    plan.finv_ = std::move(prep->finv);
    plan.s_ = std::move(prep->s_used);
  } else {
    plan.finv_ = prep->finv * prep->s_used;  // G
    plan.cost_ = plan.finv_.nonzeros();
  }
  // Distinct survivor blocks actually read: columns of the applied matrix
  // (S for normal, G for matrix-first) with at least one nonzero.
  const Matrix& applied = seq == Sequence::kNormal ? plan.s_ : plan.finv_;
  for (std::size_t c = 0; c < applied.cols(); ++c) {
    plan.source_blocks_ += !applied.column_is_zero(c);
  }
  return plan;
}

std::optional<std::pair<std::size_t, std::size_t>> SubPlan::sequence_costs(
    const Matrix& h, std::span<const std::size_t> rows,
    std::span<const std::size_t> unknowns,
    std::span<const std::size_t> excluded) {
  auto prep = prepare(h, rows, unknowns, excluded);
  if (!prep.has_value()) return std::nullopt;
  const std::size_t normal = prep->finv.nonzeros() + prep->s_used.nonzeros();
  const std::size_t mf = (prep->finv * prep->s_used).nonzeros();
  return std::make_pair(normal, mf);
}

SubPlan SubPlan::from_parts(const gf::Field& f, Sequence seq,
                            std::vector<std::size_t> unknowns,
                            std::vector<std::size_t> survivors,
                            std::vector<std::size_t> check_rows, Matrix finv,
                            Matrix s, std::size_t cost,
                            std::size_t source_blocks) {
  SubPlan plan(f, seq);
  plan.unknowns_ = std::move(unknowns);
  plan.survivors_ = std::move(survivors);
  plan.rows_ = std::move(check_rows);
  plan.finv_ = std::move(finv);
  plan.s_ = std::move(s);
  plan.cost_ = cost;
  plan.source_blocks_ = source_blocks;
  return plan;
}

namespace {

// Bound on the normal sequence's intermediate tmp = S · BS (one tile per
// unknown), held on the stack; the tile shrinks as the unknowns grow.
constexpr std::size_t kScratchBytes = 32 * 1024;

// Cut the rows of `m` into batches of at most kMaxDotRows. A batch streams
// the union of its rows' column supports and computes every (row, column)
// pair of that union, zero entries included; counting one unit per pair
// and one per streamed column (its load and nibble split), a row joins a
// batch only when that costs no more than running it on its own. Rows with
// equal supports (SD's global rows; any dense G) fuse, while a short local
// row stays out of a batch of long global ones instead of padding it with
// zeros. Greedy over rows in decreasing support size.
std::vector<std::vector<std::size_t>> batch_rows(const Matrix& m) {
  std::vector<std::vector<bool>> support(m.rows(),
                                         std::vector<bool>(m.cols()));
  std::vector<std::size_t> size(m.rows(), 0);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      support[r][c] = m(r, c) != 0;
      size[r] += support[r][c];
    }
  }
  std::vector<std::size_t> order(m.rows());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
    return size[a] > size[b];
  });
  std::vector<bool> taken(m.rows(), false);
  std::vector<std::vector<std::size_t>> batches;
  batches.reserve(m.rows());
  for (const std::size_t seed : order) {
    if (taken[seed]) continue;
    taken[seed] = true;
    std::vector<std::size_t> batch{seed};
    std::vector<bool> uni = support[seed];
    std::size_t u = size[seed];
    for (const std::size_t r : order) {
      if (batch.size() == gf::kMaxDotRows) break;
      if (taken[r]) continue;
      std::size_t merged = u;
      for (std::size_t c = 0; c < m.cols(); ++c) {
        merged += support[r][c] && !uni[c];
      }
      const std::size_t k = batch.size();
      if ((k + 2) * merged > (k + 1) * u + 2 * size[r]) continue;
      taken[r] = true;
      batch.push_back(r);
      for (std::size_t c = 0; c < m.cols(); ++c) {
        uni[c] = uni[c] || support[r][c];
      }
      u = merged;
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

}  // namespace

// One applied matrix in kernel-ready form: its rows cut into batches
// (batch_rows), each listing the columns with a nonzero in those rows and
// the prepared tables of its entries, source-major (the DotFn layout).
struct SubPlan::Prepared {
  struct Batch {
    std::vector<std::size_t> rows;  // output rows (<= kMaxDotRows)
    std::vector<std::size_t> cols;  // matrix columns streamed
    std::size_t tables = 0;         // byte offset of the batch's tables
  };

  explicit Prepared(const SubPlan& plan);

  const gf::RegionKernels* kernels = nullptr;
  std::vector<Batch> first;   // G (matrix-first) or S (normal)
  std::vector<Batch> second;  // F⁻¹ (normal only)
  AlignedBuffer tables;
  std::size_t max_cols = 0;
};

SubPlan::Prepared::Prepared(const SubPlan& plan)
    : kernels(&gf::kernels_for(plan.finv_.field().w(), detect_isa())) {
  const gf::Field& f = plan.finv_.field();
  const std::size_t stride = f.prepared_bytes(kernels->layout);
  std::size_t total = 0;
  const auto cut = [&](const Matrix& m, std::vector<Batch>& out) {
    for (auto& rows : batch_rows(m)) {
      Batch batch;
      batch.rows = std::move(rows);
      for (std::size_t c = 0; c < m.cols(); ++c) {
        for (const std::size_t r : batch.rows) {
          if (m(r, c) != 0) {
            batch.cols.push_back(c);
            break;
          }
        }
      }
      batch.tables = total;
      total += batch.cols.size() * batch.rows.size() * stride;
      max_cols = std::max(max_cols, batch.cols.size());
      out.push_back(std::move(batch));
    }
  };
  const auto fill = [&](const Matrix& m, const std::vector<Batch>& batches) {
    for (const Batch& b : batches) {
      std::uint8_t* t = tables.data() + b.tables;
      for (const std::size_t c : b.cols) {
        for (const std::size_t r : b.rows) {
          f.prepare(m(r, c), kernels->layout, t);
          t += stride;
        }
      }
    }
  };
  const bool normal = plan.seq_ == Sequence::kNormal;
  cut(normal ? plan.s_ : plan.finv_, first);
  if (normal) cut(plan.finv_, second);
  tables = AlignedBuffer::uninitialized(total);
  fill(normal ? plan.s_ : plan.finv_, first);
  if (normal) fill(plan.finv_, second);
}

const SubPlan::Prepared& SubPlan::PreparedSlot::get(
    const SubPlan& plan) const {
  if (const Prepared* p = p_.load(std::memory_order_acquire)) return *p;
  auto fresh = std::make_unique<const Prepared>(plan);
  const Prepared* expected = nullptr;
  if (p_.compare_exchange_strong(expected, fresh.get(),
                                 std::memory_order_acq_rel,
                                 std::memory_order_acquire)) {
    return *fresh.release();
  }
  return *expected;  // another thread published first
}

void SubPlan::PreparedSlot::reset(const Prepared* next) noexcept {
  delete p_.exchange(next, std::memory_order_acq_rel);
}

void SubPlan::execute(std::uint8_t* const* blocks, std::size_t block_bytes,
                      DecodeStats* stats) const {
  const Prepared& p = prepared_.get(*this);
  using Batch = Prepared::Batch;

  // Run every batch of one applied matrix over one tile of `len` bytes:
  // column c streams from src_of(c), output row r is stored to dst_of(r).
  std::vector<const std::uint8_t*> in(p.max_cols);
  std::uint8_t* out[gf::kMaxDotRows] = {};
  const auto apply = [&](const std::vector<Batch>& batches,
                         const auto& src_of, const auto& dst_of,
                         std::size_t len) {
    for (const Batch& b : batches) {
      for (std::size_t j = 0; j < b.cols.size(); ++j) in[j] = src_of(b.cols[j]);
      for (std::size_t r = 0; r < b.rows.size(); ++r) out[r] = dst_of(b.rows[r]);
      p.kernels->dot(out, b.rows.size(), in.data(), b.cols.size(), len,
                     p.tables.data() + b.tables);
    }
  };

  if (seq_ == Sequence::kMatrixFirst) {
    // BF = G · BS directly into the unknown blocks.
    for (std::size_t off = 0; off < block_bytes; off += kTileBytes) {
      apply(
          p.first, [&](std::size_t c) { return blocks[survivors_[c]] + off; },
          [&](std::size_t r) { return blocks[unknowns_[r]] + off; },
          std::min(kTileBytes, block_bytes - off));
    }
  } else {
    // Per tile: tmp = S · BS into the scratch, then BF = F⁻¹ · tmp. The
    // tile is a multiple of 64 bytes (so of every symbol size) and shrinks
    // until one tile per unknown fits the stack scratch; only a plan with
    // more than kScratchBytes / 64 unknowns spills it to the heap.
    const std::size_t n = unknowns_.size();
    const std::size_t tile = std::clamp<std::size_t>(
        n == 0 ? kTileBytes : kScratchBytes / n / 64 * 64, 64, kTileBytes);
    alignas(64) std::uint8_t stack[kScratchBytes];
    AlignedBuffer heap;
    std::uint8_t* scratch = stack;
    if (n * tile > kScratchBytes) {
      heap = AlignedBuffer::uninitialized(n * tile);
      scratch = heap.data();
    }
    for (std::size_t off = 0; off < block_bytes; off += tile) {
      const std::size_t len = std::min(tile, block_bytes - off);
      apply(
          p.first, [&](std::size_t c) { return blocks[survivors_[c]] + off; },
          [&](std::size_t r) { return scratch + r * tile; }, len);
      apply(
          p.second, [&](std::size_t c) { return scratch + c * tile; },
          [&](std::size_t r) { return blocks[unknowns_[r]] + off; }, len);
    }
  }

  if (stats != nullptr) {
    const DecodeStats add = execute_stats(block_bytes);
    stats->mult_xors += add.mult_xors;
    stats->bytes_touched += add.bytes_touched;
    stats->blocks_read += add.blocks_read;
  }
}

DecodeStats SubPlan::execute_stats(std::size_t block_bytes) const {
  DecodeStats st;
  st.mult_xors = finv_.nonzeros() +
                 (seq_ == Sequence::kNormal ? s_.nonzeros() : 0);
  st.bytes_touched = st.mult_xors * block_bytes;
  st.blocks_read = source_blocks_;
  return st;
}

}  // namespace ppm
