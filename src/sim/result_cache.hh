/**
 * @file
 * Content-addressed on-disk result cache.
 *
 * Entries are keyed by runCacheKey (SHA-256 of the canonical request
 * plus the binary fingerprint) and stored under a two-level fanout —
 * `<dir>/<key[0:2]>/<key[2:]>` — so a populated cache never piles a
 * hundred thousand files into one directory. Each entry file carries
 * a magic/key/length/checksum header and the payload (a resultToJson
 * document or any other byte string the caller round-trips).
 *
 * Crash/concurrency discipline:
 *  - Writers stage to a unique temp file in the entry's directory and
 *    commit with rename(2), so a reader never observes a half-written
 *    entry and two processes storing the same key atomically converge
 *    on one file.
 *  - The LRU index (`<dir>/index`, "seq bytes key" lines) is only
 *    touched under an flock on `<dir>/index.lock`, and is itself
 *    rewritten via temp-file + rename. The index is advisory: a
 *    missing or stale index line never loses data (lookup goes to
 *    the entry file), it only delays eviction.
 *  - Lookup validates magic, key echo, payload length, and an FNV-1a
 *    payload checksum; a truncated or corrupted entry is quarantined
 *    (moved to `<dir>/quarantine/<key>` for postmortem) and reported
 *    as a miss, never served.
 *
 * Failure discipline (robustness):
 *  - A store that fails with a disk-full/IO errno (ENOSPC, EDQUOT,
 *    EIO) flips the cache into sticky *pass-through* mode: subsequent
 *    stores are counted (`passthrough`) and skipped, lookups still
 *    hit whatever is already on disk, and the caller never sees a
 *    failure. A full disk degrades a sweep to cold-run speed instead
 *    of killing it.
 *  - scrub() (surfaced as `specslice_verify --fsck`) walks the fanout,
 *    re-verifies every entry end to end, quarantines or deletes the
 *    corrupt ones, clears staged temp files, and rebuilds the LRU
 *    index from the survivors.
 *
 * Eviction is LRU by commit/touch sequence number, triggered on
 * store() when the total payload bytes exceed the configured cap.
 */

#ifndef SPECSLICE_SIM_RESULT_CACHE_HH
#define SPECSLICE_SIM_RESULT_CACHE_HH

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>

namespace specslice::sim
{

namespace cache_detail
{
struct CacheIndex;
}

class ResultCache
{
  public:
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t stores = 0;
        std::uint64_t evictions = 0;
        /** Corrupt/truncated entries rejected (counted as misses). */
        std::uint64_t rejected = 0;
        /** Rejected entries preserved under <dir>/quarantine/. */
        std::uint64_t quarantined = 0;
        /** Stores skipped while degraded to pass-through mode. */
        std::uint64_t passthrough = 0;
    };

    /** What scrub() saw and did; every entry file lands in exactly
     *  one of ok/quarantined/deleted. */
    struct ScrubReport
    {
        std::uint64_t scanned = 0;     ///< entry files examined
        std::uint64_t ok = 0;          ///< verified end to end
        std::uint64_t quarantined = 0; ///< corrupt, moved aside
        std::uint64_t deleted = 0;     ///< corrupt, unlinked
        std::uint64_t tmpRemoved = 0;  ///< stale .tmp.* staging files
        std::uint64_t indexDropped = 0; ///< index lines w/o a file
        std::uint64_t indexAdded = 0;   ///< files the index missed
        std::uint64_t bytes = 0;        ///< payload bytes verified ok
    };

    /** Default size cap: plenty for full-suite sweeps at many
     *  configurations, small enough to forget about. */
    static constexpr std::uint64_t defaultMaxBytes =
        std::uint64_t{256} * 1024 * 1024;

    /**
     * Open (creating directories as needed) a cache rooted at dir.
     * @param max_bytes total payload-byte cap for LRU eviction
     *        (0 = unlimited).
     */
    explicit ResultCache(std::string dir,
                         std::uint64_t max_bytes = defaultMaxBytes);

    /**
     * Fetch the payload stored under key, or nullopt. A hit bumps the
     * entry's LRU sequence. Thread-safe (one internal mutex; on-disk
     * state is additionally safe across processes via flock + atomic
     * renames).
     */
    std::optional<std::string> lookup(const std::string &key);

    /**
     * Commit payload under key (atomically; concurrent writers of the
     * same key converge on one entry). Runs LRU eviction afterwards.
     * Disk-full/IO failures flip the cache into pass-through mode and
     * return true (degraded, not fatal); other failures return false
     * and set error.
     */
    bool store(const std::string &key, const std::string &payload,
               std::string &error);

    /**
     * Walk every entry on disk, verify headers + checksums, move
     * corrupt entries to `<dir>/quarantine/` (or unlink them when
     * `delete_corrupt`), remove stale staging files, and rebuild the
     * flock'd LRU index from the verified survivors (existing
     * recency order is preserved where the index already knew the
     * entry). @return false and set error only if the walk or index
     * rewrite itself fails.
     */
    bool scrub(ScrubReport &report, std::string &error,
               bool delete_corrupt = false);

    /** Entries currently listed in the index (locks the index). */
    std::uint64_t entryCount();

    /** True once a disk failure flipped the cache to pass-through. */
    bool degraded() const { return degraded_; }

    const std::string &dir() const { return dir_; }
    const Stats &stats() const { return stats_; }

  private:
    std::string entryPath(const std::string &key) const;
    /** Move a corrupt entry aside (fallback: unlink). */
    void quarantineEntry(const std::string &path,
                         const std::string &key);
    /** Rewrite the index applying fn under the lock. */
    bool withIndex(
        const std::function<void(cache_detail::CacheIndex &)> &fn,
        std::string &error);

    std::string dir_;
    std::uint64_t maxBytes_;
    mutable std::mutex mu_;  ///< guards stats_ + in-process I/O
    Stats stats_;
    bool degraded_ = false;  ///< sticky pass-through mode
};

} // namespace specslice::sim

#endif // SPECSLICE_SIM_RESULT_CACHE_HH
