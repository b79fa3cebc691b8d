// Block I/O abstraction between the codec and block data (ppm::io).
//
// The plain decode paths consume raw `uint8_t*` regions and presume every
// survivor read succeeds and returns uncorrupted bytes — exactly the
// assumption the sector-failure model behind SD/PMDS codes exists to
// break. A BlockSource makes the read explicit and fallible: the resilient
// decode pipeline (codec/resilient.h) fetches each survivor through this
// interface, so failed reads, stragglers and torn sectors become events
// the pipeline can retry, escalate or degrade around instead of undefined
// behavior.
//
// Two implementations ship here:
//  * MemoryBlockSource — the trivial adapter over an in-memory stripe
//    (the "disks" of tests, benches and the chaos harness);
//  * FaultInjectingSource (fault_injection.h) — a wrapper that injects a
//    deterministic, seeded schedule of read faults for chaos testing.
//
// Reads are pull-only and idempotent from the caller's perspective; a
// source may internally count attempts (fault schedules are per-attempt).
// Thread-safety is per-implementation: the resilient pipeline issues
// reads serially from the decoding thread and needs none, but the async
// serving layer (serve/async_source.h) multiplexes concurrent read()
// calls from its read-pool workers, so sources handed to it must tolerate
// concurrent read() with distinct `dst` buffers. MemoryBlockSource
// (const backing, pure copy) and FaultInjectingSource (internally
// locked) both do.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>

namespace ppm::io {

/// Outcome of one read attempt.
enum class ReadStatus {
  kOk,      ///< `bytes` bytes of the block were copied into `dst`
  kFailed,  ///< the read failed; `dst` contents are unspecified
};

/// Outcome of one write attempt.
enum class WriteStatus {
  kOk,      ///< `bytes` bytes landed durably in the block
  kFailed,  ///< the write failed; the block may hold a torn prefix
};

/// A readable collection of equally sized blocks (one stripe's worth of
/// storage targets: disks, object-store keys, remote peers, ...).
class BlockSource {
 public:
  BlockSource() = default;
  BlockSource(const BlockSource&) = delete;
  BlockSource& operator=(const BlockSource&) = delete;
  virtual ~BlockSource() = default;

  /// Number of addressable blocks.
  virtual std::size_t block_count() const = 0;

  /// Bytes per block.
  virtual std::size_t block_bytes() const = 0;

  /// Read the first `bytes` bytes of block `block` into `dst`. Returns
  /// kFailed for out-of-range ids or `bytes` beyond the block size; a
  /// failed read may leave `dst` partially written (torn read).
  virtual ReadStatus read(std::size_t block, std::uint8_t* dst,
                          std::size_t bytes) = 0;
};

/// The write side of a block store. Separated from BlockSource because
/// most consumers only read: decode fetches survivors, but only the scrub
/// repair path (scrub/scrub.h) writes recovered blocks back to storage. A
/// write may fail (disk full, dead device) or tear — land a prefix and
/// then fail — and callers must treat a kFailed write as "block contents
/// unspecified", never as a no-op.
class BlockWriter {
 public:
  BlockWriter() = default;
  BlockWriter(const BlockWriter&) = delete;
  BlockWriter& operator=(const BlockWriter&) = delete;
  virtual ~BlockWriter() = default;

  /// Write the first `bytes` bytes of block `block` from `src`. Returns
  /// kFailed for out-of-range ids or `bytes` beyond the block size.
  virtual WriteStatus write(std::size_t block, const std::uint8_t* src,
                            std::size_t bytes) = 0;
};

/// Adapter over an in-memory stripe: block `i` is backed by `blocks[i]`.
/// The backing pointers must outlive the source; reads always succeed
/// (within bounds) and copy from the backing region.
class MemoryBlockSource : public BlockSource {
 public:
  MemoryBlockSource(const std::uint8_t* const* blocks, std::size_t count,
                    std::size_t block_bytes)
      : blocks_(blocks), count_(count), block_bytes_(block_bytes) {}

  std::size_t block_count() const override { return count_; }
  std::size_t block_bytes() const override { return block_bytes_; }
  ReadStatus read(std::size_t block, std::uint8_t* dst,
                  std::size_t bytes) override;

 private:
  const std::uint8_t* const* blocks_;
  std::size_t count_;
  std::size_t block_bytes_;
};

/// Read/write adapter over a mutable in-memory stripe. Unlike the
/// read-only MemoryBlockSource (const backing, lock-free), a writable
/// store serializes read() and write() under one mutex so a concurrent
/// reader never observes a half-applied write — the scrubber writes
/// repaired blocks back through this seam while serving traffic may still
/// be reading them.
class MemoryBlockStore : public BlockSource, public BlockWriter {
 public:
  MemoryBlockStore(std::uint8_t* const* blocks, std::size_t count,
                   std::size_t block_bytes)
      : blocks_(blocks), count_(count), block_bytes_(block_bytes) {}

  std::size_t block_count() const override { return count_; }
  std::size_t block_bytes() const override { return block_bytes_; }
  ReadStatus read(std::size_t block, std::uint8_t* dst,
                  std::size_t bytes) override;
  WriteStatus write(std::size_t block, const std::uint8_t* src,
                    std::size_t bytes) override;

 private:
  std::uint8_t* const* blocks_;
  std::size_t count_;
  std::size_t block_bytes_;
  std::mutex mutex_;  ///< read/write atomicity for concurrent callers
};

}  // namespace ppm::io
