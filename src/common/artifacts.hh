/**
 * @file
 * Process-wide artifact-store hook: dependency inversion between the
 * oracle *producers* (qsa::locate predicate/overlap oracles, the
 * qsa::analyze prefix-equivalence certifier) and the persistent cache
 * that stores their results (qsa::serve::OracleStore).
 *
 * The producers sit below the serving layer and must not depend on
 * it, so they talk to this narrow interface instead: before deriving
 * an expensive artifact they ask the installed store for a prior
 * result under a canonical key, and after deriving they offer the
 * serialized payload back. When no store is installed (the default —
 * every pre-existing entry point) both calls are skipped and
 * behaviour is exactly as before.
 *
 * Keys are human-readable canonical strings (producers prefix them
 * with a payload schema version, e.g. "v2:<contentHash>:..."), and
 * payloads are JSON documents whose doubles round-trip bit-exactly
 * (json::Value::number), so a warm store returns artifacts *equal* to
 * what a cold derivation would produce — the serving layer's
 * determinism contract depends on that.
 *
 * Implementations must be safe to call from concurrent requests.
 */

#ifndef QSA_COMMON_ARTIFACTS_HH
#define QSA_COMMON_ARTIFACTS_HH

#include <string>

namespace qsa::common
{

/** Persistent artifact cache interface (see file comment). */
class ArtifactStore
{
  public:
    virtual ~ArtifactStore() = default;

    /**
     * Look up a previously stored payload. `kind` namespaces the key
     * ("predicates", "overlap", "prefix_cert"); returns true and
     * fills `*payload` on a usable hit, false otherwise (missing,
     * unreadable, version-mismatched entries are all just misses).
     */
    virtual bool load(const std::string &kind, const std::string &key,
                      std::string *payload) = 0;

    /** Persist a payload under (kind, key); best-effort, never
     *  fatal — a failed write degrades to re-deriving next time. */
    virtual void store(const std::string &kind, const std::string &key,
                       const std::string &payload) = 0;
};

/**
 * Install (or, with nullptr, remove) the process-wide store. The
 * caller keeps ownership and must keep the store alive until it is
 * removed. Thread-safe against concurrent artifactStore() readers;
 * installation itself is expected at process/server setup, not
 * mid-request.
 */
void setArtifactStore(ArtifactStore *store);

/** Currently installed store, or nullptr. */
ArtifactStore *artifactStore();

} // namespace qsa::common

#endif // QSA_COMMON_ARTIFACTS_HH
