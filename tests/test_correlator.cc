/**
 * @file
 * Prediction-correlator tests (Section 5): the Figure 9(b) scenario
 * step by step, loop-iteration and slice kills, the skip-first rule,
 * VN#-based mis-speculation recovery, late predictions and their
 * consumers, queue overflow, dead entries, and capacity management.
 */

#include <gtest/gtest.h>

#include <vector>

#include "slice/correlator.hh"
#include "slice/slice_table.hh"

using namespace specslice;
using namespace specslice::slice;

namespace
{

constexpr Addr branchPc = 0x10100;   // problem branch (block D)
constexpr Addr loopPc = 0x10200;     // loop-iteration kill (block F)
constexpr Addr killPc = 0x10300;     // slice kill (block G)
constexpr Addr slicePgiPc = 0x8000;

SliceDescriptor
makeSlice(bool skip_first = false)
{
    SliceDescriptor sd;
    sd.name = "test";
    sd.forkPc = 0x10000;
    sd.slicePc = 0x8000;
    PgiSpec pgi;
    pgi.sliceInstPc = slicePgiPc;
    pgi.problemBranchPc = branchPc;
    pgi.loopKillPc = loopPc;
    pgi.sliceKillPc = killPc;
    pgi.loopKillSkipFirst = skip_first;
    sd.pgis = {pgi};
    return sd;
}

} // namespace

/**
 * Figure 9(b), transliterated. The slice guesses the loop runs three
 * times and generates predictions P1..P3. The path taken is
 * A B C F B C D F B G:
 *  - iteration 1: block D is *not* executed; F kills P1;
 *  - iteration 2: D executes and must match P2 (not P1!); F kills P2;
 *  - loop exit (G): remaining predictions killed.
 */
TEST(CorrelatorFigure9, ConditionallyExecutedBranch)
{
    PredictionCorrelator c;
    SliceDescriptor sd = makeSlice();
    c.onFork(sd, 1, /*fork_seq=*/100);

    // Slice generates three predictions: T, NT, T.
    auto t1 = c.onPgiFetch(sd.pgis[0], 100, 1001);
    auto t2 = c.onPgiFetch(sd.pgis[0], 100, 1002);
    auto t3 = c.onPgiFetch(sd.pgis[0], 100, 1003);
    ASSERT_NE(t1, 0u);
    c.onPgiExecute(t1, true);
    c.onPgiExecute(t2, false);
    c.onPgiExecute(t3, true);

    // Iteration 1: D not fetched; F kills P1.
    c.onKillFetch(loopPc, 200);

    // Iteration 2: D fetched; must see P2 (direction NT).
    auto m = c.onBranchFetch(branchPc, 210, true);
    ASSERT_TRUE(m.matched);
    EXPECT_EQ(m.overrideDir, 0);  // P2 = not-taken
    c.onKillFetch(loopPc, 220);   // F kills P2.

    // Loop exits: G kills the rest; another D would find nothing.
    c.onKillFetch(killPc, 230);
    auto m2 = c.onBranchFetch(branchPc, 240, true);
    EXPECT_FALSE(m2.matched);
}

TEST(CorrelatorTest, MisSpeculationRecoveryRestoresKills)
{
    PredictionCorrelator c;
    SliceDescriptor sd = makeSlice();
    c.onFork(sd, 1, 100);
    auto t1 = c.onPgiFetch(sd.pgis[0], 100, 1001);
    c.onPgiExecute(t1, true);

    // A wrong-path kill at VN# 500...
    c.onKillFetch(loopPc, 500);
    EXPECT_FALSE(c.onBranchFetch(branchPc, 510, false).matched);

    // ...is undone when the squash discards VN#s > 490.
    c.squashMain(490);
    auto m = c.onBranchFetch(branchPc, 520, false);
    ASSERT_TRUE(m.matched);
    EXPECT_EQ(m.overrideDir, 1);
}

TEST(CorrelatorTest, SquashRemovesSpeculativeForks)
{
    PredictionCorrelator c;
    SliceDescriptor sd = makeSlice();
    c.onFork(sd, 1, 100);   // older fork
    c.onFork(sd, 2, 600);   // fork on (what turns out to be) wrong path
    EXPECT_EQ(c.liveEntries(), 2u);
    c.squashMain(550);
    EXPECT_EQ(c.liveEntries(), 1u);
}

TEST(CorrelatorTest, SkipFirstLoopKill)
{
    // When the loop-kill block is the back-edge target, its first
    // instance precedes the first branch instance and must not kill.
    PredictionCorrelator c;
    SliceDescriptor sd = makeSlice(/*skip_first=*/true);
    c.onFork(sd, 1, 100);
    auto t1 = c.onPgiFetch(sd.pgis[0], 100, 1001);
    c.onPgiExecute(t1, true);

    c.onKillFetch(loopPc, 200);  // first instance: skipped
    auto m = c.onBranchFetch(branchPc, 210, false);
    ASSERT_TRUE(m.matched);
    EXPECT_EQ(m.overrideDir, 1);

    c.onKillFetch(loopPc, 220);  // second instance kills P1
    EXPECT_FALSE(c.onBranchFetch(branchPc, 230, false).matched);
}

TEST(CorrelatorTest, SkipFirstRestoredOnSquash)
{
    PredictionCorrelator c;
    SliceDescriptor sd = makeSlice(true);
    c.onFork(sd, 1, 100);
    auto t1 = c.onPgiFetch(sd.pgis[0], 100, 1001);
    c.onPgiExecute(t1, false);

    c.onKillFetch(loopPc, 500);  // consumed skip (wrong path)
    c.squashMain(400);           // squashed: skip restored
    c.onKillFetch(loopPc, 520);  // this is the real first instance
    auto m = c.onBranchFetch(branchPc, 530, true);
    EXPECT_TRUE(m.matched);      // prediction still alive
    EXPECT_EQ(m.overrideDir, 0);
}

TEST(CorrelatorTest, LatePredictionBindsConsumer)
{
    PredictionCorrelator c;
    SliceDescriptor sd = makeSlice();
    c.onFork(sd, 1, 100);
    auto t1 = c.onPgiFetch(sd.pgis[0], 100, 1001);

    // Branch fetched before the PGI executes: Empty match, default
    // predictor used (direction false).
    auto m = c.onBranchFetch(branchPc, 300, false);
    EXPECT_TRUE(m.matched);
    EXPECT_EQ(m.overrideDir, -1);

    // PGI executes and disagrees -> reversal info surfaces.
    auto late = c.onPgiExecute(t1, true);
    ASSERT_TRUE(late.hasConsumer);
    EXPECT_EQ(late.consumerSeq, 300u);
    EXPECT_FALSE(late.usedDir);
    EXPECT_TRUE(late.computedDir);
}

TEST(CorrelatorTest, SquashedConsumerUnbinds)
{
    PredictionCorrelator c;
    SliceDescriptor sd = makeSlice();
    c.onFork(sd, 1, 100);
    auto t1 = c.onPgiFetch(sd.pgis[0], 100, 1001);
    c.onBranchFetch(branchPc, 300, false);
    c.squashMain(250);  // branch squashed
    auto late = c.onPgiExecute(t1, true);
    EXPECT_FALSE(late.hasConsumer);
    // The now-Full prediction serves the refetched branch directly.
    auto m = c.onBranchFetch(branchPc, 310, false);
    EXPECT_EQ(m.overrideDir, 1);
}

TEST(CorrelatorTest, QueueOverflowStopsAllocating)
{
    PredictionCorrelator::Config cfg;
    cfg.predsPerBranch = 2;
    PredictionCorrelator c(cfg);
    SliceDescriptor sd = makeSlice();
    c.onFork(sd, 1, 100);
    EXPECT_NE(c.onPgiFetch(sd.pgis[0], 100, 1001), 0u);
    EXPECT_NE(c.onPgiFetch(sd.pgis[0], 100, 1002), 0u);
    // Third allocation drops, and the entry stays closed even after a
    // kill frees a slot (slot/instance alignment would be lost).
    EXPECT_EQ(c.onPgiFetch(sd.pgis[0], 100, 1003), 0u);
    c.onKillFetch(loopPc, 200);
    c.retireUpTo(300);
    EXPECT_EQ(c.onPgiFetch(sd.pgis[0], 100, 1004), 0u);
}

TEST(CorrelatorTest, OverflowStaysStickyAcrossSliceSquash)
{
    PredictionCorrelator::Config cfg;
    cfg.predsPerBranch = 2;
    PredictionCorrelator c(cfg);
    SliceDescriptor sd = makeSlice();
    c.onFork(sd, 1, 100);
    EXPECT_NE(c.onPgiFetch(sd.pgis[0], 100, 1001), 0u);
    EXPECT_NE(c.onPgiFetch(sd.pgis[0], 100, 1002), 0u);
    // Third prediction overflows: it corresponds to branch instance 3
    // but never got a slot.
    EXPECT_EQ(c.onPgiFetch(sd.pgis[0], 100, 1003), 0u);

    // A slice-local squash discards the (uncomputed) second slot. The
    // freed capacity must NOT reopen the entry: the next PGI the
    // re-fetched slice generates is for instance 2, but the correlator
    // cannot know whether the slice replays instance 2 or continues
    // from instance 4 — the slot/instance alignment is unrecoverable
    // once a prediction was dropped.
    c.squashSlice(100, 1001);
    EXPECT_EQ(c.onPgiFetch(sd.pgis[0], 100, 1004), 0u);

    // A main-thread squash of the fork itself frees the whole entry;
    // a fresh fork starts over with alignment intact and accepts
    // predictions again.
    c.squashMain(50);
    EXPECT_EQ(c.liveEntries(), 0u);
    c.onFork(sd, 1, 300);
    EXPECT_NE(c.onPgiFetch(sd.pgis[0], 300, 2001), 0u);
}

TEST(CorrelatorTest, DeadEntryRejectsLatePgiFetches)
{
    PredictionCorrelator c;
    SliceDescriptor sd = makeSlice();
    c.onFork(sd, 1, 100);
    auto t1 = c.onPgiFetch(sd.pgis[0], 100, 1001);
    c.onPgiExecute(t1, true);

    // The main thread leaves the valid region: slice kill.
    c.onKillFetch(killPc, 400);
    // The slice is still running and generates more predictions; they
    // must not leak into the next dynamic instance.
    EXPECT_EQ(c.onPgiFetch(sd.pgis[0], 100, 1002), 0u);
    // A squash of the kill restores the entry.
    c.squashMain(350);
    EXPECT_NE(c.onPgiFetch(sd.pgis[0], 100, 1003), 0u);
}

TEST(CorrelatorTest, AllEntriesDeadRequiresRetiredKill)
{
    PredictionCorrelator c;
    SliceDescriptor sd = makeSlice();
    c.onFork(sd, 1, 100);
    c.onPgiFetch(sd.pgis[0], 100, 1001);
    EXPECT_FALSE(c.allEntriesDead(100, 1000));
    c.onKillFetch(killPc, 400);
    EXPECT_FALSE(c.allEntriesDead(100, 399));  // kill speculative
    EXPECT_TRUE(c.allEntriesDead(100, 400));   // kill retired
}

TEST(CorrelatorTest, DeadSliceReportedAfterEarlierEntryFreed)
{
    // Two problem branches, each with its own slice kill: the first
    // entry dies, retires and is freed long before the second dies.
    // Once the second kill retires the slice has only dead entries
    // left and must be reported, exactly once.
    PredictionCorrelator c;
    SliceDescriptor sd = makeSlice();
    PgiSpec second = sd.pgis[0];
    second.sliceInstPc = slicePgiPc + 8;
    second.problemBranchPc = branchPc + 0x40;
    second.loopKillPc = loopPc + 0x40;
    second.sliceKillPc = killPc + 0x40;
    sd.pgis.push_back(second);
    c.onFork(sd, 1, 100);
    ASSERT_EQ(c.liveEntries(), 2u);

    c.onKillFetch(killPc, 300);
    EXPECT_TRUE(c.deadSlices(299).empty());  // kill speculative
    EXPECT_TRUE(c.deadSlices(300).empty());  // second entry alive
    c.retireUpTo(300);
    EXPECT_EQ(c.liveEntries(), 1u);          // first entry freed
    EXPECT_TRUE(c.deadSlices(350).empty());

    c.onKillFetch(killPc + 0x40, 400);
    EXPECT_TRUE(c.deadSlices(399).empty());
    EXPECT_FALSE(c.allEntriesDead(100, 399));
    EXPECT_TRUE(c.allEntriesDead(100, 400));
    EXPECT_EQ(c.deadSlices(400), std::vector<SeqNum>{100});
    EXPECT_TRUE(c.deadSlices(401).empty());  // reported once
}

TEST(CorrelatorTest, SquashedDeadKillReportsNothing)
{
    PredictionCorrelator c;
    SliceDescriptor sd = makeSlice();
    c.onFork(sd, 1, 100);
    c.onPgiFetch(sd.pgis[0], 100, 1001);
    c.onKillFetch(killPc, 400);
    c.squashMain(399);  // the killing instruction was wrong-path
    EXPECT_TRUE(c.deadSlices(400).empty());
    EXPECT_TRUE(c.deadSlices(10'000).empty());
    EXPECT_FALSE(c.allEntriesDead(100, 10'000));
    EXPECT_EQ(c.liveEntries(), 1u);
}

TEST(CorrelatorTest, DeadSliceReportedWhenLiveSiblingEvicted)
{
    // Capacity eviction of a slice's only live entry leaves it with
    // dead ones alone: the free must reopen the dead-slice check even
    // though the bound crosses no new kill.
    PredictionCorrelator c(PredictionCorrelator::Config{2, 8});
    SliceDescriptor sd = makeSlice();
    PgiSpec second = sd.pgis[0];
    second.problemBranchPc = branchPc + 0x40;
    second.sliceKillPc = killPc + 0x40;
    sd.pgis.insert(sd.pgis.begin(), second);  // the live one is oldest
    c.onFork(sd, 1, 100);
    c.onKillFetch(killPc, 300);
    EXPECT_TRUE(c.deadSlices(300).empty());
    EXPECT_TRUE(c.deadSlices(500).empty());

    SliceDescriptor other = makeSlice();
    other.pgis[0].problemBranchPc = branchPc + 0x80;
    c.onFork(other, 2, 600);  // evicts fork 100's live entry
    EXPECT_EQ(c.deadSlices(600), std::vector<SeqNum>{100});
}

TEST(CorrelatorTest, RetirementReclaimsSlotsAndEntries)
{
    PredictionCorrelator c;
    SliceDescriptor sd = makeSlice();
    c.onFork(sd, 1, 100);
    auto t1 = c.onPgiFetch(sd.pgis[0], 100, 1001);
    c.onPgiExecute(t1, true);
    c.onKillFetch(killPc, 400);
    c.onSliceDone(100);
    EXPECT_EQ(c.liveEntries(), 1u);
    c.retireUpTo(500);
    EXPECT_EQ(c.liveEntries(), 0u);
}

TEST(CorrelatorTest, TwoForksMatchInForkOrder)
{
    // Two live forks whose entries share the branch PC but carry
    // distinct kill PCs (kills are CAMs: a shared kill PC would hit
    // both entries).
    PredictionCorrelator c;
    SliceDescriptor sd = makeSlice();
    SliceDescriptor sd2 = makeSlice();
    sd2.forkPc += 8;
    sd2.pgis[0].loopKillPc = loopPc + 8;
    c.onFork(sd, 1, 100);
    c.onFork(sd2, 2, 200);
    auto ta = c.onPgiFetch(sd.pgis[0], 100, 1001);
    auto tb = c.onPgiFetch(sd2.pgis[0], 200, 2001);
    c.onPgiExecute(ta, true);
    c.onPgiExecute(tb, false);

    // The older fork's prediction is consulted first.
    auto m1 = c.onBranchFetch(branchPc, 300, false);
    EXPECT_EQ(m1.overrideDir, 1);
    // After a per-iteration kill retires the older fork's only
    // prediction, the younger fork's entry serves the next instance.
    c.onKillFetch(loopPc, 310);
    auto m2 = c.onBranchFetch(branchPc, 320, false);
    EXPECT_EQ(m2.overrideDir, 0);
}

TEST(CorrelatorTest, SliceKillDeactivatesAllMatchingEntries)
{
    // The kill PC is a CAM over every live entry (Figure 10): when it
    // is fetched, all entries carrying it die. Program order ensures
    // a region's kill precedes the next fork, so in practice only the
    // finished instance is live — but the hardware semantics are
    // "kill all matches".
    PredictionCorrelator c;
    SliceDescriptor sd = makeSlice();
    c.onFork(sd, 1, 100);
    c.onFork(sd, 2, 200);
    auto ta = c.onPgiFetch(sd.pgis[0], 100, 1001);
    auto tb = c.onPgiFetch(sd.pgis[0], 200, 2001);
    c.onPgiExecute(ta, true);
    c.onPgiExecute(tb, false);
    c.onKillFetch(killPc, 310);
    EXPECT_FALSE(c.onBranchFetch(branchPc, 320, false).matched);
}

TEST(CorrelatorTest, MultiplePgisMakeSeparateEntries)
{
    PredictionCorrelator c;
    SliceDescriptor sd = makeSlice();
    PgiSpec second = sd.pgis[0];
    second.sliceInstPc = slicePgiPc + 8;
    second.problemBranchPc = branchPc + 0x40;
    sd.pgis.push_back(second);
    c.onFork(sd, 1, 100);
    EXPECT_EQ(c.liveEntries(), 2u);

    auto t1 = c.onPgiFetch(sd.pgis[0], 100, 1001);
    auto t2 = c.onPgiFetch(sd.pgis[1], 100, 1002);
    c.onPgiExecute(t1, true);
    c.onPgiExecute(t2, false);
    EXPECT_EQ(c.onBranchFetch(branchPc, 200, false).overrideDir, 1);
    EXPECT_EQ(c.onBranchFetch(branchPc + 0x40, 210, false).overrideDir,
              0);
}

TEST(CorrelatorTest, SliceSquashRemovesUncomputedTail)
{
    PredictionCorrelator c;
    SliceDescriptor sd = makeSlice();
    c.onFork(sd, 1, 100);
    auto t1 = c.onPgiFetch(sd.pgis[0], 100, 1001);
    auto t2 = c.onPgiFetch(sd.pgis[0], 100, 1005);
    c.onPgiExecute(t1, true);
    // The slice mispredicted its own back-edge: PGIs younger than 1002
    // are squashed.
    c.squashSlice(100, 1002);
    // t2's slot is gone; executing it is a no-op.
    auto late = c.onPgiExecute(t2, false);
    EXPECT_FALSE(late.hasConsumer);
    // t1 survives.
    EXPECT_EQ(c.onBranchFetch(branchPc, 200, false).overrideDir, 1);
    auto m2 = c.onBranchFetch(branchPc, 201, false);
    (void)m2;
}

TEST(SliceTableTest, ForkAndPgiLookup)
{
    SliceTable st;
    SliceDescriptor sd = makeSlice();
    st.load(sd);
    EXPECT_EQ(st.forkAt(0x10000), 0);
    EXPECT_EQ(st.forkAt(0x10008), -1);
    ASSERT_NE(st.pgiAt(slicePgiPc), nullptr);
    EXPECT_EQ(st.pgiAt(slicePgiPc)->problemBranchPc, branchPc);
    EXPECT_EQ(st.pgiAt(0x9999), nullptr);
    EXPECT_EQ(st.numSlices(), 1u);
    EXPECT_EQ(st.numPgis(), 1u);
}

TEST(SliceTableTest, DescriptorKillCount)
{
    SliceDescriptor sd = makeSlice();
    EXPECT_EQ(sd.killCount(), 2u);  // loop kill + slice kill
    sd.pgis[0].loopKillPc = invalidAddr;
    EXPECT_EQ(sd.killCount(), 1u);
}
