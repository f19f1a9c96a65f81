/**
 * @file
 * The in-flight instruction window: a fixed pool of DynInst slots, a
 * VN# -> slot index, and the per-thread reorder-buffer ring.
 */

#ifndef SPECSLICE_CORE_INFLIGHT_HH
#define SPECSLICE_CORE_INFLIGHT_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "core/dyninst.hh"

namespace specslice::core
{

/**
 * The in-flight window, keyed by VN#. All `capacity` slots are
 * allocated at construction; the core's window-occupancy counters
 * bound how many instructions are live, so the pool never grows, and
 * insert() panics if that bound is broken. A freed slot is reused in
 * place and keeps its dependents vector's capacity, so after
 * construction the window itself does no heap allocation.
 *
 * Live VN#s are not a dense range: a main-thread ROB head stalled on
 * a miss can sit arbitrarily far behind slice instructions that fetch
 * and retire past it. A small open-addressed (linear probing,
 * backward-shift deletion) table maps each live VN# to its slot; a
 * retired or squashed VN# is absent from it, so find() returns null.
 * Pointers returned by find() and insert() stay valid until that VN#
 * is erased.
 */
class InFlightPool
{
  public:
    explicit InFlightPool(std::size_t capacity)
        : slots_(capacity),
          index_(std::bit_ceil(std::max<std::size_t>(2 * capacity, 2))),
          mask_(index_.size() - 1),
          shift_(64 - std::countr_zero(index_.size()))
    {
        free_.reserve(capacity);
        for (std::size_t i = capacity; i-- > 0;)
            free_.push_back(static_cast<std::uint32_t>(i));
    }

    /** The live instruction with this VN#, or null. */
    DynInst *
    find(SeqNum seq)
    {
        for (std::size_t i = home(seq);; i = (i + 1) & mask_) {
            const Bucket &b = index_[i];
            if (b.seq == seq)  // an empty bucket matches invalidSeqNum
                return seq != invalidSeqNum ? &slots_[b.slot] : nullptr;
            if (b.seq == invalidSeqNum)
                return nullptr;
        }
    }

    const DynInst *
    find(SeqNum seq) const
    {
        return const_cast<InFlightPool *>(this)->find(seq);
    }

    /**
     * Take a free slot for @p seq (which must not be live) and reset
     * it to a default DynInst with seq set.
     */
    DynInst &
    insert(SeqNum seq)
    {
        SS_ASSERT(!free_.empty(), "in-flight window bound exceeded (",
                  slots_.size(), " slots)");
        SS_ASSERT(seq != invalidSeqNum, "inserting the invalid VN#");
        const std::uint32_t slot = free_.back();
        free_.pop_back();

        std::size_t i = home(seq);
        for (; index_[i].seq != invalidSeqNum; i = (i + 1) & mask_)
            SS_ASSERT(index_[i].seq != seq, "VN# ", seq, " already live");
        index_[i] = {seq, slot};

        DynInst &d = slots_[slot];
        d.reuse(seq);
        return d;
    }

    /** Free @p seq's slot; @p seq must be live. */
    void
    erase(SeqNum seq)
    {
        std::size_t i = home(seq);
        while (index_[i].seq != seq) {
            SS_ASSERT(index_[i].seq != invalidSeqNum, "erasing VN# ",
                      seq, ", which is not in flight");
            i = (i + 1) & mask_;
        }
        free_.push_back(index_[i].slot);

        // Backward-shift deletion: pull later entries of the probe run
        // into the hole unless their home lies cyclically in (hole, j].
        for (std::size_t j = (i + 1) & mask_;
             index_[j].seq != invalidSeqNum; j = (j + 1) & mask_) {
            const std::size_t k = home(index_[j].seq);
            if (((j - k) & mask_) >= ((j - i) & mask_)) {
                index_[i] = index_[j];
                i = j;
            }
        }
        index_[i].seq = invalidSeqNum;
    }

    /** Live instructions. */
    std::size_t size() const { return slots_.size() - free_.size(); }
    std::size_t capacity() const { return slots_.size(); }

  private:
    struct Bucket
    {
        SeqNum seq = invalidSeqNum;
        std::uint32_t slot = 0;
    };

    /** Fibonacci hashing: spreads runs of consecutive VN#s. */
    std::size_t
    home(SeqNum seq) const
    {
        return static_cast<std::size_t>(
            (seq * 0x9E3779B97F4A7C15ull) >> shift_);
    }

    std::vector<DynInst> slots_;
    std::vector<std::uint32_t> free_;  ///< free slot numbers (LIFO)
    std::vector<Bucket> index_;         ///< power-of-two size, <= 1/2 full
    std::size_t mask_;
    unsigned shift_;
};

/**
 * A thread's reorder buffer: its in-flight VN#s in fetch order, oldest
 * first, in a fixed power-of-two ring. The window-occupancy counter
 * the thread charges bounds its ROB, so the ring is sized once to the
 * window and push_back() panics if that bound is broken.
 */
class RobRing
{
  public:
    explicit RobRing(std::size_t capacity = 1)
        : buf_(std::bit_ceil(std::max<std::size_t>(capacity, 1))),
          mask_(buf_.size() - 1)
    {}

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    /** The i-th oldest VN# (0 = front). */
    SeqNum
    operator[](std::size_t i) const
    {
        return buf_[(head_ + i) & mask_];
    }

    SeqNum front() const { return buf_[head_]; }
    SeqNum back() const { return (*this)[size_ - 1]; }

    void
    push_back(SeqNum seq)
    {
        SS_ASSERT(size_ < buf_.size(), "ROB bound exceeded (",
                  buf_.size(), " entries)");
        buf_[(head_ + size_++) & mask_] = seq;
    }

    void
    pop_front()
    {
        head_ = (head_ + 1) & mask_;
        --size_;
    }

    void pop_back() { --size_; }

  private:
    std::vector<SeqNum> buf_;
    std::size_t mask_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace specslice::core

#endif // SPECSLICE_CORE_INFLIGHT_HH
