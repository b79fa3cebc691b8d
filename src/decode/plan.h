// Matrix-decode planning and execution for one (sub-)system.
//
// Planning turns a set of parity-check rows plus a set of unknown blocks
// into the small matrices of §II-B/§III-B; execution then applies those
// matrices to block regions. The two calculation sequences of the paper are
// supported:
//
//   * Normal      — tmp = S · BS, then BF = F⁻¹ · tmp
//                   (cost C = u(F⁻¹) + u(S));
//   * MatrixFirst — G = F⁻¹ · S once, then BF = G · BS
//                   (cost C = u(F⁻¹ · S)).
//
// Costs are exact mult_XOR counts and are what the cost model and the
// decoders' Auto policies compare. Execution does not issue them one by
// one: it walks each applied matrix in L1-sized tiles and runs the fused
// multi-destination dot kernel (gf::DotFn) per batch of up to
// gf::kMaxDotRows unknowns, so each survivor tile is read once per batch
// and each output stored once.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "matrix/matrix.h"

namespace ppm {

enum class Sequence {
  kNormal,       ///< F⁻¹ · (S · BS)
  kMatrixFirst,  ///< (F⁻¹ · S) · BS
};

/// Cumulative region-operation statistics for a decode.
struct DecodeStats {
  std::size_t mult_xors = 0;      ///< region ops issued (the paper's C)
  std::size_t bytes_touched = 0;  ///< source bytes read by region ops
  std::size_t blocks_read = 0;    ///< distinct survivor blocks read (I/O)
};

/// A planned recovery of `unknowns` from `survivors`.
class SubPlan {
 public:
  Sequence sequence() const { return seq_; }
  std::span<const std::size_t> unknowns() const { return unknowns_; }
  std::span<const std::size_t> survivors() const { return survivors_; }

  /// Rows of the planning-time parity-check matrix H that back this plan
  /// (the square selection whose restriction to `unknowns` is F). Recorded
  /// so verify_plan/ can re-derive F and S independently of the solver.
  std::span<const std::size_t> check_rows() const { return rows_; }

  /// The left matrix applied at execution time: F⁻¹ (f×f) for kNormal,
  /// G = F⁻¹·S (f×|survivors|) for kMatrixFirst.
  const Matrix& finv() const { return finv_; }

  /// The survivor matrix S (f×|survivors|) for kNormal; empty (0×0) for
  /// kMatrixFirst. Exposed for the plan verifier.
  const Matrix& s() const { return s_; }

  /// Exact mult_XOR count of executing this plan.
  std::size_t cost() const { return cost_; }

  /// Distinct survivor blocks the execution reads (the decode's I/O).
  std::size_t source_blocks() const { return source_blocks_; }

  /// Bytes of every block one kernel pass covers: execute walks blocks in
  /// tiles of this size, and CachedPlan::execute interleaves its sub-plans
  /// at the same grain.
  static constexpr std::size_t kTileBytes = 4 * 1024;

  /// What one execute over `block_bytes`-byte blocks adds to DecodeStats:
  /// mult_xors = u(applied matrices), bytes_touched = mult_xors ×
  /// block_bytes, blocks_read = source_blocks().
  DecodeStats execute_stats(std::size_t block_bytes) const;

  /// Apply the plan: read survivor blocks, write unknown blocks.
  /// `blocks[id]` is the region of block `id`; all regions have
  /// `block_bytes` bytes. Thread-safe w.r.t. other SubPlans touching
  /// disjoint unknown blocks, and w.r.t. concurrent executes of this plan
  /// on disjoint blocks. The first execute builds the plan's prepared
  /// coefficient tables and publishes them once; later ones reuse them.
  void execute(std::uint8_t* const* blocks, std::size_t block_bytes,
               DecodeStats* stats = nullptr) const;

  /// Plan recovery of `unknowns` using parity-check rows `rows` of `h`.
  /// Survivor columns are the nonzero columns of those rows minus every
  /// member of `excluded` (the full faulty set — unknowns of *other*
  /// sub-systems must not be read). All-zero columns never enter the plan
  /// (paper §III-A). Returns std::nullopt when the system is unsolvable
  /// (rank(F) < |unknowns|).
  static std::optional<SubPlan> make(const Matrix& h,
                                     std::span<const std::size_t> rows,
                                     std::span<const std::size_t> unknowns,
                                     std::span<const std::size_t> excluded,
                                     Sequence seq);

  /// Cost both sequences would have for this system; used by Auto policies
  /// without planning twice. Returns {normal, matrix_first}.
  static std::optional<std::pair<std::size_t, std::size_t>> sequence_costs(
      const Matrix& h, std::span<const std::size_t> rows,
      std::span<const std::size_t> unknowns,
      std::span<const std::size_t> excluded);

  /// Assemble a SubPlan from explicit parts, bypassing the planner. For
  /// verification tooling and tests only (verify_plan/ needs plans with
  /// deliberately corrupted internals); nothing validates the parts here —
  /// that is the verifier's job.
  static SubPlan from_parts(const gf::Field& f, Sequence seq,
                            std::vector<std::size_t> unknowns,
                            std::vector<std::size_t> survivors,
                            std::vector<std::size_t> check_rows, Matrix finv,
                            Matrix s, std::size_t cost,
                            std::size_t source_blocks);

 private:
  SubPlan(const gf::Field& f, Sequence seq)
      : seq_(seq), finv_(f, 0, 0), s_(f, 0, 0) {}

  Sequence seq_;
  std::vector<std::size_t> unknowns_;   // blocks written (f of them)
  std::vector<std::size_t> survivors_;  // blocks read
  std::vector<std::size_t> rows_;       // H rows used (post row-selection)
  // Normal: finv_ (f×f) and s_ (f×|survivors|) both used.
  // MatrixFirst: finv_ holds G = F⁻¹·S (f×|survivors|); s_ is empty.
  Matrix finv_;
  Matrix s_;
  std::size_t cost_ = 0;
  std::size_t source_blocks_ = 0;

  // Kernel-ready coefficient tables (plan.cpp). Built on first execute —
  // never by make(), which the decodability probes call — and published
  // with a compare-and-swap; a copied plan starts without them.
  struct Prepared;
  class PreparedSlot {
   public:
    PreparedSlot() = default;
    PreparedSlot(const PreparedSlot&) noexcept {}
    PreparedSlot(PreparedSlot&& o) noexcept : p_(o.p_.exchange(nullptr)) {}
    PreparedSlot& operator=(const PreparedSlot&) noexcept {
      reset(nullptr);
      return *this;
    }
    PreparedSlot& operator=(PreparedSlot&& o) noexcept {
      reset(o.p_.exchange(nullptr));
      return *this;
    }
    ~PreparedSlot() { reset(nullptr); }

    /// The published tables, building them on first use.
    const Prepared& get(const SubPlan& plan) const;

   private:
    void reset(const Prepared* next) noexcept;
    mutable std::atomic<const Prepared*> p_{nullptr};
  };
  PreparedSlot prepared_;
};

}  // namespace ppm
