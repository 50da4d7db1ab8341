/**
 * @file
 * CheckpointStore implementation.
 */

#include "runtime/checkpoint.hh"

#include <complex>

#include "common/bits.hh"
#include "obs/obs.hh"

namespace qsa::runtime
{

std::size_t
CheckpointStore::stateBytes(unsigned num_qubits)
{
    return static_cast<std::size_t>(pow2(num_qubits)) *
           sizeof(std::complex<double>);
}

std::pair<std::size_t, std::shared_ptr<const Checkpoint>>
CheckpointStore::longestPrefix(const std::vector<CheckpointKey> &keys)
{
    std::lock_guard<std::mutex> lock(mutex);
    for (std::size_t i = keys.size(); i-- > 0;) {
        if (keys[i].instructions == 0)
            break;
        // Markers repeat the previous key; its lookup already missed.
        if (i + 1 < keys.size() && keys[i] == keys[i + 1])
            continue;
        const auto it = index.find(keys[i]);
        if (it != index.end()) {
            lru.splice(lru.begin(), lru, it->second);
            return {i, it->second->second};
        }
    }
    return {0, nullptr};
}

void
CheckpointStore::insert(const CheckpointKey &key,
                        const sim::StateVector &state, std::size_t draws)
{
    const std::size_t bytes = stateBytes(state.numQubits());
    if (bytes > kBudgetBytes)
        return;
    std::lock_guard<std::mutex> lock(mutex);
    const auto it = index.find(key);
    if (it != index.end()) {
        lru.splice(lru.begin(), lru, it->second);
        return;
    }
    while (used + bytes > kBudgetBytes) {
        used -= stateBytes(lru.back().second->state.numQubits());
        index.erase(lru.back().first);
        lru.pop_back();
        QSA_OBS_COUNTER("runtime.checkpoint.evictions", 1);
    }
    lru.emplace_front(key, std::make_shared<const Checkpoint>(
                               Checkpoint{state, draws}));
    index.emplace(key, lru.begin());
    used += bytes;
}

std::size_t
CheckpointStore::bytes() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return used;
}

std::size_t
CheckpointStore::size() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return lru.size();
}

} // namespace qsa::runtime
