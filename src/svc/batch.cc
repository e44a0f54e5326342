/**
 * @file
 * Batch former implementation.
 */

#include "svc/batch.hh"

#include <algorithm>

namespace ulecc
{

BatchFormer::BatchFormer(const BatchPolicy &policy) : policy_(policy)
{
    // No linger budget means no timer would ever close a waiting
    // batch: a lone request whose shape never recurs would sit in an
    // open batch forever (a lost request, the one thing the engine
    // must never produce), so zero linger closes every batch at join.
    if (policy_.lingerNs == 0)
        policy_.maxSize = 1;
}

uint64_t
BatchFormer::passNs(uint64_t soloNs, uint64_t n) const
{
    if (n == 0)
        return 0;
    uint64_t setup = static_cast<uint64_t>(
        static_cast<double>(soloNs) * policy_.setupFraction);
    uint64_t work = soloNs - setup;
    return setup + n * work;
}

void
BatchFormer::close(std::map<BatchKey, Batch>::iterator it,
                   const char *reason)
{
    Batch b = std::move(it->second);
    open_.erase(it);
    b.closeReason = reason;
    ready_.push_back(std::move(b));
    ++closedTotal_;
}

BatchFormer::JoinResult
BatchFormer::join(const Request &req, ServiceTier tier, uint64_t estNs,
                  uint64_t now)
{
    BatchKey key{req.curve, req.arch, req.op, tier};
    JoinResult jr;
    auto it = open_.find(key);
    if (it == open_.end()) {
        Batch b;
        b.id = nextId_++;
        b.key = key;
        b.openNs = now;
        it = open_.emplace(key, std::move(b)).first;
        // A fresh batch needs a linger timer -- unless it will close
        // by size on this very join (maxSize 1, which zero linger
        // implies), where the timer would only be a dead event.
        if (policy_.maxSize > 1) {
            jr.lingerArmed = true;
            jr.lingerAtNs = now + policy_.lingerNs;
        }
    }
    Batch &b = it->second;
    jr.batchId = b.id;
    b.members.push_back(BatchMember{req, estNs, now});
    ++waitingMembers_;
    waitingEstSumNs_ += estNs;

    if (b.members.size() >= policy_.maxSize) {
        close(it, "size");
        ++closedBySize_;
        jr.closed = true;
        return jr;
    }

    // Deadline pressure: if the tightest member deadline no longer
    // leaves deadlineSlack estimated pass lengths, stop lingering.
    uint64_t tightest = UINT64_MAX;
    for (const BatchMember &m : b.members)
        tightest = std::min(tightest, m.req.deadlineNs);
    uint64_t pass = passNs(estNs, b.members.size());
    uint64_t headroom = static_cast<uint64_t>(
        policy_.deadlineSlack * static_cast<double>(pass));
    if (tightest <= now + headroom) {
        close(it, "deadline");
        ++closedByDeadline_;
        jr.closed = true;
    }
    return jr;
}

bool
BatchFormer::onLinger(uint64_t batchId)
{
    for (auto it = open_.begin(); it != open_.end(); ++it) {
        if (it->second.id == batchId) {
            close(it, "linger");
            ++closedByLinger_;
            return true;
        }
    }
    return false; // already closed by size/deadline pressure
}

Batch
BatchFormer::takeReady()
{
    Batch b = std::move(ready_.front());
    ready_.pop_front();
    for (const BatchMember &m : b.members) {
        --waitingMembers_;
        waitingEstSumNs_ -= m.estNs;
    }
    return b;
}

} // namespace ulecc
