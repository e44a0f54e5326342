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
BatchFormer::close(std::vector<Batch>::iterator it, const char *reason)
{
    Batch b = std::move(*it);
    open_.erase(it);
    b.closeReason = reason;
    ready_.push_back(std::move(b));
    ++closedTotal_;
}

bool
BatchFormer::join(const Request &req, ServiceTier tier, uint64_t estNs,
                  uint64_t now, uint64_t &nextSeq)
{
    BatchKey key{req.curve, req.arch, req.op, tier};
    auto it = std::find_if(open_.begin(), open_.end(),
                           [&](const Batch &b) { return b.key == key; });
    if (it == open_.end()) {
        Batch b;
        b.id = nextId_++;
        b.key = key;
        b.openNs = now;
        // Only a batch that can outlive this join needs a linger
        // deadline (maxSize 1, which zero linger implies, closes by
        // size right below), so only it draws a seq.
        if (policy_.maxSize > 1)
            b.lingerSeq = nextSeq++;
        it = open_.insert(open_.end(), std::move(b));
    }
    Batch &b = *it;
    b.members.push_back(BatchMember{req, estNs, now});
    ++waitingMembers_;
    waitingEstSumNs_ += estNs;

    if (b.members.size() >= policy_.maxSize) {
        close(it, "size");
        ++closedBySize_;
        return true;
    }

    // Deadline pressure: if the tightest member deadline no longer
    // leaves deadlineSlack estimated pass lengths, stop lingering.
    uint64_t tightest = UINT64_MAX;
    for (const BatchMember &m : b.members)
        tightest = std::min(tightest, m.req.deadlineNs);
    uint64_t pass = passNs(estNs, b.members.size());
    uint64_t headroom =
        saturatingNs(policy_.deadlineSlack * static_cast<double>(pass));
    if (tightest <= saturatingAdd(now, headroom)) {
        close(it, "deadline");
        ++closedByDeadline_;
        return true;
    }
    return false;
}

std::optional<BatchFormer::Linger>
BatchFormer::nextLinger() const
{
    if (open_.empty())
        return std::nullopt;
    const Batch &oldest = open_.front();
    return Linger{oldest.openNs + policy_.lingerNs, oldest.lingerSeq};
}

void
BatchFormer::closeNextLinger()
{
    close(open_.begin(), "linger");
    ++closedByLinger_;
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
