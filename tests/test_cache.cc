/**
 * @file
 * Result-cache and cache-key tests: the canonical key is stable for
 * identical requests and moves when anything result-affecting moves,
 * the on-disk store round-trips payloads, rejects (and removes)
 * corrupted entries instead of serving them, evicts LRU-first under a
 * size cap, and converges when many threads store the same key at
 * once — the property that lets parallel sweeps (and separate
 * processes) share one cache directory.
 */

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.hh"
#include "fault/fault.hh"
#include "sim/result_cache.hh"
#include "sim/run_key.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace specslice;

namespace
{

/** Fresh empty cache directory, removed on destruction. */
class TempCacheDir
{
  public:
    TempCacheDir()
    {
        static int counter = 0;
        path_ = (std::filesystem::temp_directory_path() /
                 ("ss_cache_test_" + std::to_string(::getpid()) + "_" +
                  std::to_string(counter++)))
                    .string();
        std::filesystem::remove_all(path_);
    }

    ~TempCacheDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** The entry file a key lands in (mirrors the two-level fanout). */
std::string
entryFile(const std::string &dir, const std::string &key)
{
    return dir + "/" + key.substr(0, 2) + "/" + key.substr(2);
}

sim::Workload
smallWorkload(const std::string &name = "vpr", std::uint64_t seed = 1)
{
    workloads::Params p;
    p.scale = 100'000;
    p.seed = seed;
    return workloads::buildWorkload(name, p);
}

/** A filled-in key request over stack-owned config/options. */
struct KeyFixture
{
    sim::Workload wl = smallWorkload();
    sim::MachineConfig cfg = sim::MachineConfig::fourWide();
    sim::RunOptions opts;

    KeyFixture()
    {
        opts.maxMainInstructions = 10'000;
        opts.warmupInstructions = 2'000;
        opts.intervalCycles = 10'000;
    }

    sim::RunKeyInputs
    inputs(bool with_slices = true)
    {
        sim::RunKeyInputs in;
        in.workload = &wl;
        in.dataSeed = 1;
        in.config = &cfg;
        in.options = &opts;
        in.withSlices = with_slices;
        return in;
    }
};

} // namespace

// ---------------------------------------------------------------
// Keys
// ---------------------------------------------------------------

TEST(RunKeyTest, IdenticalRequestsProduceIdenticalKeys)
{
    KeyFixture a, b;
    EXPECT_EQ(sim::runCacheKey(a.inputs()), sim::runCacheKey(b.inputs()));
    EXPECT_EQ(sim::runCacheKey(a.inputs()).size(), 64u);
}

TEST(RunKeyTest, EveryResultAffectingInputMovesTheKey)
{
    KeyFixture base;
    const std::string k0 = sim::runCacheKey(base.inputs());

    {
        KeyFixture f;
        f.opts.maxMainInstructions += 1;
        EXPECT_NE(sim::runCacheKey(f.inputs()), k0) << "insts";
    }
    {
        KeyFixture f;
        f.opts.warmupInstructions += 1;
        EXPECT_NE(sim::runCacheKey(f.inputs()), k0) << "warmup";
    }
    {
        KeyFixture f;
        f.cfg.windowSize *= 2;
        EXPECT_NE(sim::runCacheKey(f.inputs()), k0) << "config";
    }
    {
        KeyFixture f;
        f.opts.check = !f.opts.check;
        EXPECT_NE(sim::runCacheKey(f.inputs()), k0) << "check";
    }
    {
        KeyFixture f;
        f.opts.warmInstCache = !f.opts.warmInstCache;
        EXPECT_NE(sim::runCacheKey(f.inputs()), k0) << "icache warmth";
    }
    {
        KeyFixture f;
        f.opts.fastForwardInstructions = 5'000;
        EXPECT_NE(sim::runCacheKey(f.inputs()), k0) << "fastforward";
    }
    {
        KeyFixture f;
        f.wl = smallWorkload("vpr", 2);  // data seed
        auto in = f.inputs();
        in.dataSeed = 2;
        EXPECT_NE(sim::runCacheKey(in), k0) << "seed";
    }
    {
        KeyFixture f;
        EXPECT_NE(sim::runCacheKey(f.inputs(false)), k0)
            << "with_slices";
    }
}

TEST(RunKeyTest, ObservationOnlyOptionsDoNotMoveTheKey)
{
    KeyFixture a;
    const std::string k0 = sim::runCacheKey(a.inputs());

    // Save-checkpoint is a pure output path: same simulated numbers.
    KeyFixture b;
    b.opts.saveCheckpoint = "/tmp/whatever.ckpt";
    EXPECT_EQ(sim::runCacheKey(b.inputs()), k0);
}

TEST(RunKeyTest, CheckpointKeyCoversIdentityAndDepth)
{
    sim::Workload wl = smallWorkload();
    const std::string k = sim::checkpointCacheKey(wl, 1, 10'000);
    EXPECT_EQ(k.size(), 16u);
    EXPECT_EQ(k, sim::checkpointCacheKey(wl, 1, 10'000));
    EXPECT_NE(k, sim::checkpointCacheKey(wl, 2, 10'000));
    EXPECT_NE(k, sim::checkpointCacheKey(wl, 1, 20'000));
    sim::Workload other = smallWorkload("mcf");
    EXPECT_NE(k, sim::checkpointCacheKey(other, 1, 10'000));
}

// ---------------------------------------------------------------
// Store
// ---------------------------------------------------------------

TEST(ResultCacheTest, StoreLookupRoundTrip)
{
    TempCacheDir dir;
    sim::ResultCache cache(dir.path());

    const std::string key(64, 'a');
    const std::string payload = "{\"cycles\": 123}\nwith a newline";
    EXPECT_FALSE(cache.lookup(key).has_value());
    std::string err;
    ASSERT_TRUE(cache.store(key, payload, err)) << err;

    auto back = cache.lookup(key);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, payload);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.entryCount(), 1u);

    // A second cache over the same directory (another process, in
    // spirit) sees the entry.
    sim::ResultCache reopened(dir.path());
    auto again = reopened.lookup(key);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, payload);
}

TEST(ResultCacheTest, TruncatedEntryIsRejectedAndRemoved)
{
    TempCacheDir dir;
    sim::ResultCache cache(dir.path());
    const std::string key(64, 'b');
    std::string err;
    ASSERT_TRUE(cache.store(key, "a payload of some length", err));

    // Chop the file mid-payload.
    const std::string file = entryFile(dir.path(), key);
    ASSERT_TRUE(std::filesystem::exists(file));
    std::filesystem::resize_file(
        file, std::filesystem::file_size(file) - 5);

    EXPECT_FALSE(cache.lookup(key).has_value());
    EXPECT_EQ(cache.stats().rejected, 1u);
    // The corpse must be gone so the next store gets a clean slate.
    EXPECT_FALSE(std::filesystem::exists(file));
    ASSERT_TRUE(cache.store(key, "replacement", err));
    auto back = cache.lookup(key);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, "replacement");
}

TEST(ResultCacheTest, BadMagicIsRejected)
{
    TempCacheDir dir;
    sim::ResultCache cache(dir.path());
    const std::string key(64, 'c');
    std::string err;
    ASSERT_TRUE(cache.store(key, "payload", err));

    const std::string file = entryFile(dir.path(), key);
    {
        std::ofstream os(file, std::ios::trunc);
        os << "XXXX " << key << " 7\npayload";
    }
    EXPECT_FALSE(cache.lookup(key).has_value());
    EXPECT_GE(cache.stats().rejected, 1u);
    EXPECT_FALSE(std::filesystem::exists(file));
}

TEST(ResultCacheTest, KeyMismatchInsideEntryIsRejected)
{
    // An entry renamed/copied to the wrong path must not be served
    // under the wrong key.
    TempCacheDir dir;
    sim::ResultCache cache(dir.path());
    const std::string key1(64, 'd'), key2(64, 'e');
    std::string err;
    ASSERT_TRUE(cache.store(key1, "payload-one", err));

    std::filesystem::create_directories(
        std::filesystem::path(entryFile(dir.path(), key2))
            .parent_path());
    std::filesystem::copy_file(entryFile(dir.path(), key1),
                               entryFile(dir.path(), key2));
    EXPECT_FALSE(cache.lookup(key2).has_value());
    EXPECT_GE(cache.stats().rejected, 1u);
}

TEST(ResultCacheTest, LruEvictionUnderSizeCap)
{
    TempCacheDir dir;
    // Cap fits ~3 payloads of 1000 bytes.
    sim::ResultCache cache(dir.path(), 3'000);

    const std::string payload(1'000, 'x');
    std::vector<std::string> keys;
    for (int i = 0; i < 3; ++i)
        keys.push_back(std::string(64, static_cast<char>('f' + i)));
    std::string err;
    for (const std::string &k : keys)
        ASSERT_TRUE(cache.store(k, payload, err)) << err;
    EXPECT_EQ(cache.entryCount(), 3u);
    EXPECT_EQ(cache.stats().evictions, 0u);

    // Touch the oldest so it is no longer LRU.
    EXPECT_TRUE(cache.lookup(keys[0]).has_value());

    // A fourth store must evict exactly one entry — keys[1], the
    // least recently used after the touch.
    const std::string k4(64, 'z');
    ASSERT_TRUE(cache.store(k4, payload, err));
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.entryCount(), 3u);
    EXPECT_TRUE(cache.lookup(keys[0]).has_value());
    EXPECT_FALSE(cache.lookup(keys[1]).has_value());
    EXPECT_TRUE(cache.lookup(keys[2]).has_value());
    EXPECT_TRUE(cache.lookup(k4).has_value());
}

TEST(ResultCacheTest, ZeroCapMeansUnlimited)
{
    TempCacheDir dir;
    sim::ResultCache cache(dir.path(), 0);
    std::string err;
    for (int i = 0; i < 8; ++i) {
        std::string key = sha256Hex("unlimited " + std::to_string(i));
        ASSERT_TRUE(cache.store(key, std::string(10'000, 'y'), err));
    }
    EXPECT_EQ(cache.stats().evictions, 0u);
    EXPECT_EQ(cache.entryCount(), 8u);
}

TEST(ResultCacheTest, ConcurrentSameKeyStoresConvergeOnOneEntry)
{
    TempCacheDir dir;
    const std::string key(64, '9');
    const std::string payload(4'096, 'p');

    // Many threads, each with its own cache instance (separate
    // processes in miniature), all storing the same key.
    std::vector<std::thread> threads;
    std::vector<int> failures(8, 0);
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&, t]() {
            sim::ResultCache cache(dir.path());
            for (int i = 0; i < 5; ++i) {
                std::string err;
                if (!cache.store(key, payload, err))
                    failures[t] = 1;
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    for (int f : failures)
        EXPECT_EQ(f, 0);

    sim::ResultCache cache(dir.path());
    auto back = cache.lookup(key);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, payload);
    // Exactly one entry, listed exactly once.
    EXPECT_EQ(cache.entryCount(), 1u);
    // No stray temp files left behind in the fanout directory.
    unsigned files = 0;
    for (const auto &e : std::filesystem::recursive_directory_iterator(
             dir.path()))
        if (e.is_regular_file() &&
            e.path().filename().string().rfind("index", 0) != 0)
            ++files;
    EXPECT_EQ(files, 1u);
}

TEST(ResultCacheTest, ConcurrentMixedKeysAllLand)
{
    TempCacheDir dir;
    sim::ResultCache shared(dir.path());
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t]() {
            for (int i = 0; i < 10; ++i) {
                std::string key = sha256Hex(
                    "mixed " + std::to_string(t * 10 + i));
                std::string err;
                ASSERT_TRUE(
                    shared.store(key, "payload " + key, err));
                auto back = shared.lookup(key);
                ASSERT_TRUE(back.has_value());
                EXPECT_EQ(*back, "payload " + key);
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(shared.entryCount(), 40u);
}

// ---------------------------------------------------------------
// Corruption, degradation, scrub
// ---------------------------------------------------------------

namespace
{

/** XOR the file's last byte (the payload tail) in place. */
void
flipLastByte(const std::string &file)
{
    std::fstream fs(file,
                    std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(fs.good()) << file;
    fs.seekg(0, std::ios::end);
    std::streamoff len = fs.tellg();
    ASSERT_GT(len, 0);
    char c = 0;
    fs.seekg(len - 1);
    fs.read(&c, 1);
    c ^= 0x1;
    fs.seekp(len - 1);
    fs.write(&c, 1);
}

} // namespace

TEST(ResultCacheTest, FlippedPayloadByteIsQuarantinedOnRead)
{
    TempCacheDir dir;
    sim::ResultCache cache(dir.path());
    const std::string key(64, 'f');
    std::string err;
    ASSERT_TRUE(cache.store(key, "checksummed payload bytes", err))
        << err;

    const std::string file = entryFile(dir.path(), key);
    flipLastByte(file);

    // Silent corruption must never be served: checksum mismatch ->
    // miss, and the corpse moves to quarantine/ for postmortem.
    EXPECT_FALSE(cache.lookup(key).has_value());
    EXPECT_EQ(cache.stats().rejected, 1u);
    EXPECT_EQ(cache.stats().quarantined, 1u);
    EXPECT_FALSE(std::filesystem::exists(file));
    EXPECT_TRUE(std::filesystem::exists(dir.path() + "/quarantine/" +
                                        key));

    // The slot is reusable immediately.
    ASSERT_TRUE(cache.store(key, "fresh replacement", err));
    auto back = cache.lookup(key);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, "fresh replacement");
}

TEST(ResultCacheTest, InjectedDiskFullDegradesToPassthrough)
{
    fault::FaultPlan plan;
    std::string perr;
    ASSERT_TRUE(
        fault::FaultPlan::parse("cache.enospc@n1", plan, perr))
        << perr;
    plan.seed = 7;
    fault::Injector inj(plan);
    fault::setServiceInjector(&inj);

    TempCacheDir dir;
    sim::ResultCache cache(dir.path());
    std::string err;
    const std::string key(64, 'e');
    // A full disk must not fail the run: the store is absorbed.
    EXPECT_TRUE(cache.store(key, "payload", err)) << err;
    fault::setServiceInjector(nullptr);

    EXPECT_TRUE(cache.degraded());
    EXPECT_EQ(cache.stats().passthrough, 1u);
    EXPECT_FALSE(cache.lookup(key).has_value());

    // Degradation is sticky: the injector is gone, but the cache
    // stays in pass-through for its lifetime.
    EXPECT_TRUE(cache.store(key, "payload", err));
    EXPECT_EQ(cache.stats().passthrough, 2u);
    EXPECT_FALSE(cache.lookup(key).has_value());
    EXPECT_EQ(cache.entryCount(), 0u);
}

TEST(ResultCacheTest, InjectedReadFlipRejectsEntry)
{
    TempCacheDir dir;
    sim::ResultCache cache(dir.path());
    const std::string key(64, 'a');
    std::string err;
    ASSERT_TRUE(cache.store(key, "healthy on disk", err)) << err;

    fault::FaultPlan plan;
    std::string perr;
    ASSERT_TRUE(fault::FaultPlan::parse("cache.flip@n1", plan, perr))
        << perr;
    plan.seed = 7;
    fault::Injector inj(plan);
    fault::setServiceInjector(&inj);
    // The flip tap corrupts the bytes between disk and caller; the
    // checksum catches it and the lookup misses instead of serving
    // garbage.
    EXPECT_FALSE(cache.lookup(key).has_value());
    fault::setServiceInjector(nullptr);
    EXPECT_EQ(cache.stats().rejected, 1u);
    EXPECT_EQ(cache.stats().quarantined, 1u);
}

TEST(ResultCacheTest, ScrubQuarantinesCorruptAndRepairsIndex)
{
    TempCacheDir dir;
    sim::ResultCache cache(dir.path());
    std::string err;
    const std::string k1(64, '1'), k2(64, '2'), k3(64, '3');
    ASSERT_TRUE(cache.store(k1, "payload one", err));
    ASSERT_TRUE(cache.store(k2, "payload two", err));
    ASSERT_TRUE(cache.store(k3, "payload three", err));

    // Corrupt k2 in place, delete k3 behind the cache's back, drop a
    // crashed writer's staging file next to k1.
    flipLastByte(entryFile(dir.path(), k2));
    std::filesystem::remove(entryFile(dir.path(), k3));
    std::ofstream(entryFile(dir.path(), k1) + ".tmp.9999") << "junk";

    sim::ResultCache::ScrubReport rep;
    ASSERT_TRUE(cache.scrub(rep, err)) << err;
    EXPECT_EQ(rep.scanned, 2u); // k3's file is already gone
    EXPECT_EQ(rep.ok, 1u);
    EXPECT_EQ(rep.quarantined, 1u);
    EXPECT_EQ(rep.deleted, 0u);
    EXPECT_EQ(rep.tmpRemoved, 1u);
    EXPECT_EQ(rep.indexDropped, 2u); // k2 corrupt + k3 missing
    EXPECT_EQ(rep.indexAdded, 0u);
    EXPECT_EQ(rep.bytes, std::string("payload one").size());

    EXPECT_EQ(cache.entryCount(), 1u);
    EXPECT_TRUE(cache.lookup(k1).has_value());
    EXPECT_TRUE(std::filesystem::exists(dir.path() + "/quarantine/" +
                                        k2));

    // --fsck-delete mode: corrupt entries are unlinked, not kept.
    ASSERT_TRUE(cache.store(k3, "fresh three", err));
    flipLastByte(entryFile(dir.path(), k3));
    ASSERT_TRUE(cache.scrub(rep, err, /*delete_corrupt=*/true)) << err;
    EXPECT_EQ(rep.deleted, 1u);
    EXPECT_FALSE(std::filesystem::exists(entryFile(dir.path(), k3)));

    // A lost index is rebuilt from the verified survivors.
    std::filesystem::remove(dir.path() + "/index");
    ASSERT_TRUE(cache.scrub(rep, err)) << err;
    EXPECT_EQ(rep.indexAdded, 1u);
    EXPECT_EQ(cache.entryCount(), 1u);
}
