/**
 * @file
 * The in-flight window pool: VN# lookup across many reuses of every
 * slot, gaps left by squashes, stale lookups, clean slot reuse, and
 * the window bound.
 */

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <random>

#include "common/failure.hh"
#include "core/inflight.hh"

using namespace specslice;
using core::DynInst;
using core::InFlightPool;

TEST(InFlightPool, SeqsWrapManyTimesPastCapacity)
{
    // A FIFO stream (fetch at the tail, retire at the head) through a
    // full 8-slot pool: every slot and index bucket is reused hundreds
    // of times.
    InFlightPool pool(8);
    SeqNum head = 1;
    for (SeqNum seq = 1; seq <= 2'000; ++seq) {
        if (pool.size() == pool.capacity())
            pool.erase(head++);
        DynInst &d = pool.insert(seq);
        EXPECT_EQ(d.seq, seq);
        d.pc = seq * 4;
    }
    EXPECT_EQ(pool.size(), 8u);
    for (SeqNum seq = head; seq <= 2'000; ++seq) {
        DynInst *d = pool.find(seq);
        ASSERT_NE(d, nullptr) << seq;
        EXPECT_EQ(d->seq, seq);
        EXPECT_EQ(d->pc, seq * 4);
    }
    for (SeqNum seq = 1; seq < head; ++seq)
        EXPECT_EQ(pool.find(seq), nullptr) << seq;
}

TEST(InFlightPool, SquashGapsAndFarApartSeqsMatchReference)
{
    // Random fetch / youngest-first squash / oldest-first retire, with
    // one long-lived VN# kept live while the rest stream thousands of
    // VN#s past it (a main-thread head stalled under slice traffic).
    // Every lookup agrees with a reference map, live or not.
    InFlightPool pool(16);
    std::map<SeqNum, Addr> live;
    std::mt19937_64 rng(7);
    SeqNum next = 1;
    const SeqNum stalled = next++;
    pool.insert(stalled).pc = 0xdead;
    live[stalled] = 0xdead;

    for (int step = 0; step < 20'000; ++step) {
        const unsigned r = rng() % 8;
        if (r < 4 && live.size() < pool.capacity()) {
            const SeqNum seq = next++;
            // Squashed VN#s are never reused: skip a few to leave gaps.
            if (rng() % 4 == 0)
                next += rng() % 5;
            pool.insert(seq).pc = seq * 4;
            live[seq] = seq * 4;
        } else if (r < 6 && live.size() > 1) {
            // Squash the youngest few.
            for (unsigned n = 1 + rng() % 3; n && live.size() > 1; --n) {
                pool.erase(live.rbegin()->first);
                live.erase(std::prev(live.end()));
            }
        } else if (live.size() > 1) {
            // Retire the oldest after the stalled one.
            auto it = std::next(live.begin());
            pool.erase(it->first);
            live.erase(it);
        }
        ASSERT_EQ(pool.size(), live.size());
    }
    EXPECT_GT(next, 10'000u);
    for (SeqNum seq = 1; seq < next; ++seq) {
        auto it = live.find(seq);
        DynInst *d = pool.find(seq);
        if (it == live.end()) {
            EXPECT_EQ(d, nullptr) << seq;
        } else {
            ASSERT_NE(d, nullptr) << seq;
            EXPECT_EQ(d->pc, it->second);
        }
    }
    EXPECT_EQ(pool.find(invalidSeqNum), nullptr);
}

TEST(InFlightPool, StaleSeqFindsNullAfterSlotReuse)
{
    InFlightPool pool(1);
    DynInst *first = &pool.insert(5);
    pool.erase(5);
    EXPECT_EQ(pool.find(5), nullptr);
    DynInst *second = &pool.insert(6);
    EXPECT_EQ(first, second);  // the single slot was reused
    EXPECT_EQ(pool.find(5), nullptr);
    EXPECT_EQ(pool.find(6), second);
}

TEST(InFlightPool, ReusedSlotCarriesNoStaleState)
{
    InFlightPool pool(1);
    DynInst &d = pool.insert(1);
    for (SeqNum s = 100; s < 132; ++s)
        d.dependents.push_back(s);
    d.regCheckpointAfter = std::make_unique<arch::RegFile>();
    d.pgiToken = 9;
    d.forkedThread = 2;
    d.issued = d.completed = true;
    const std::size_t deps_capacity = d.dependents.capacity();
    pool.erase(1);

    DynInst &r = pool.insert(2);
    ASSERT_EQ(&r, &d);
    EXPECT_EQ(r.seq, 2u);
    EXPECT_TRUE(r.dependents.empty());
    EXPECT_EQ(r.dependents.capacity(), deps_capacity);  // kept for reuse
    EXPECT_EQ(r.regCheckpointAfter, nullptr);
    EXPECT_EQ(r.pgiToken, 0u);
    EXPECT_EQ(r.forkedThread, invalidThread);
    EXPECT_FALSE(r.issued);
    EXPECT_FALSE(r.completed);
}

TEST(InFlightPool, ExceedingTheWindowBoundAsserts)
{
    InFlightPool pool(4);
    for (SeqNum s = 1; s <= 4; ++s)
        pool.insert(s);
    ScopedThrowErrors throwing;
    EXPECT_THROW(pool.insert(5), SimError);
    EXPECT_THROW(pool.erase(99), SimError);
}

TEST(RobRing, WrapsInFetchOrderAndSquashesFromTheBack)
{
    // Capacity rounds up to a power of two; every push/pop pattern of
    // a ROB (fetch at the back, retire at the front, squash from the
    // back) must agree with a deque through many wraps.
    core::RobRing rob(6);
    std::deque<SeqNum> ref;
    std::mt19937_64 rng(3);
    SeqNum next = 1;
    for (int step = 0; step < 5'000; ++step) {
        const unsigned r = rng() % 4;
        if (r < 2 && ref.size() < 6) {
            rob.push_back(next);
            ref.push_back(next++);
        } else if (r == 2 && !ref.empty()) {
            rob.pop_front();
            ref.pop_front();
        } else if (!ref.empty()) {
            rob.pop_back();
            ref.pop_back();
        }
        ASSERT_EQ(rob.size(), ref.size());
        ASSERT_EQ(rob.empty(), ref.empty());
        if (!ref.empty()) {
            ASSERT_EQ(rob.front(), ref.front());
            ASSERT_EQ(rob.back(), ref.back());
        }
        for (std::size_t i = 0; i < ref.size(); ++i)
            ASSERT_EQ(rob[i], ref[i]);
    }
    EXPECT_GT(next, 1'000u);

    for (std::size_t i = rob.size(); i < 8; ++i)
        rob.push_back(next++);
    ScopedThrowErrors throwing;
    EXPECT_THROW(rob.push_back(next), SimError);
}
