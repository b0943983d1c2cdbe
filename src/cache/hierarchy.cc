#include "cache/hierarchy.hh"

#include "common/contract.hh"
#include "common/prof.hh"
#include "common/trace.hh"
#include "core/factory.hh"

namespace desc::cache {

encoding::SchemeConfig
L2Config::effectiveSchemeConfig() const
{
    encoding::SchemeConfig c = scheme_cfg;
    if (!ecc)
        return c;

    ecc::BlockCodec codec(c.block_bits, ecc_segment_bits);
    if (isDesc()) {
        // Parity chunks ride on extra wires (Figure 9): e.g. the
        // (137,128) code adds nine 4-bit parity chunks to a 128-wire
        // interface.
        unsigned parity_chunks = codec.totalParityBits() / c.chunk_bits;
        DESC_ASSERT(codec.totalParityBits() % c.chunk_bits == 0,
                    "parity bits not chunk-aligned");
        c.bus_wires += parity_chunks;
    } else {
        // Binary-style buses keep their beat count and widen by the
        // parity wires per beat (e.g. 64 -> 72 for (72,64)).
        unsigned beats = c.block_bits / c.bus_wires;
        DESC_ASSERT(codec.busBits() % beats == 0,
                    "ECC bus word not beat-aligned");
        c.bus_wires = codec.busBits() / beats;
    }
    c.block_bits = codec.busBits();
    return c;
}

MemHierarchy::MemHierarchy(sim::EventQueue &eq, const L2Config &l2cfg,
                           BackingStore &backing, unsigned num_cores,
                           const L1Config &l1cfg,
                           const dram::DramConfig &dram_cfg)
    : _eq(eq), _cfg(l2cfg), _energy_model(l2cfg.org), _backing(backing),
      _dram(eq, dram_cfg),
      _l2(l2cfg.org.capacity_bytes, l2cfg.org.assoc, l2cfg.org.block_bytes),
      _l2_slot(std::size_t(_l2.numSets()) * _l2.assoc()),
      _l2_cold((_l2.numSets() + 63) / 64, ~std::uint64_t{0}),
      _scratch(0), _scratch_raw(l2cfg.scheme_cfg.block_bits),
      _chunk_stats(l2cfg.scheme_cfg.chunk_bits == 0
                       ? 4
                       : l2cfg.scheme_cfg.chunk_bits,
                   128)
{
    DESC_ASSERT(num_cores >= 1 && num_cores <= 8,
                "directory bitmap supports up to 8 cores");

    for (unsigned c = 0; c < num_cores; c++) {
        _l1i.emplace_back(l1cfg.capacity_bytes, l1cfg.assoc_i,
                          l1cfg.block_bytes);
        _l1d.emplace_back(l1cfg.capacity_bytes, l1cfg.assoc_d,
                          l1cfg.block_bytes);
    }

    auto eff = _cfg.effectiveSchemeConfig();
    if (_cfg.ecc) {
        _codec = std::make_unique<ecc::BlockCodec>(
            _cfg.scheme_cfg.block_bits, _cfg.ecc_segment_bits);
        _scratch = BitVec(_codec->busBits());
    }

    unsigned banks = _cfg.org.banks;
    _banks.resize(banks);
    for (unsigned b = 0; b < banks; b++) {
        _banks[b].read_scheme = core::makeScheme(_cfg.scheme, eff);
        _banks[b].write_scheme = core::makeScheme(_cfg.scheme, eff);
        if (_cfg.snuca && banks > 1) {
            double frac = double(b) / double(banks - 1);
            _banks[b].route_latency = Cycle(
                _cfg.snuca_min_latency
                + frac * (_cfg.snuca_max_latency - _cfg.snuca_min_latency));
            // Flip energy scales with routing distance; mean stays 1.
            _banks[b].energy_weight = 0.4 + 1.2 * frac;
        }
    }

    // Timing from the geometry model.
    const double cycle_ps = 1000.0 / _cfg.org.clock_ghz;
    const auto &dev = energy::tech22().device(_cfg.org.cell_dev);
    _array_read_cycles = std::max<unsigned>(
        1, unsigned(250.0 * dev.access_time_factor / cycle_ps + 0.999));
    _array_write_cycles = _array_read_cycles;
    _flight = _energy_model.htreeFlightCycles();
}

unsigned
MemHierarchy::bankOf(Addr addr) const
{
    return unsigned((addr >> 6) % _cfg.org.banks);
}

Cycle
MemHierarchy::transfer(unsigned bank_idx, const Block512 &data,
                       bool write_dir, Cycle earliest)
{
    Bank &bank = _banks[bank_idx];

    toBitVec(data, _scratch_raw);
    const BitVec *word = &_scratch_raw;
    if (_codec) {
        _codec->encodeInto(_scratch_raw, _scratch);
        word = &_scratch;
    }
    if (_cfg.collect_chunk_stats)
        _chunk_stats.observe(_scratch_raw);

    auto &scheme = write_dir ? *bank.write_scheme : *bank.read_scheme;
    encoding::TransferResult r;
    {
        DESC_PROF_SCOPE(Encoder);
        r = scheme.transfer(*word);
    }
    DESC_PROF_CYCLES(Encoder, r.cycles);

    Cycle window = r.cycles
        + (_cfg.isDesc() ? _cfg.desc_interface_delay : 0);
    unsigned array = write_dir ? _array_write_cycles : _array_read_cycles;

    Cycle start = std::max(earliest, bank.free_at);
    Cycle complete = start + array + window;
    // Array access of the next request can overlap this transfer.
    bank.free_at = start + std::max<Cycle>(array, window);

    _stats.data_flips += double(r.data_flips) * bank.energy_weight;
    _stats.ctrl_flips += double(r.control_flips) * bank.energy_weight;
    _stats.bank_busy_cycles += window;
    _stats.transfer_window.sample(double(window));
    (write_dir ? _stats.write_transfers : _stats.read_transfers).inc();

    DESC_TRACE_EVENT(Cache, _eq.now(), "bank ", bank_idx,
                     write_dir ? " write" : " read",
                     " transfer: window ", window, " cyc, ",
                     r.data_flips, " data + ", r.control_flips,
                     " ctrl flips, complete @", complete);

    return complete;
}

MemHierarchy::L1Array::Way
MemHierarchy::evictL1Victim(unsigned core, L1Array &l1, Addr addr,
                            bool ifetch)
{
    auto v = l1.victim(addr);
    if (!l1.valid(v))
        return v;
    Addr va = l1.addrOf(v);
    L1Meta &vm = l1.meta(v);
    if (!ifetch) {
        auto l2way = warmL2(va).lookup(va);
        if (vm.state == MesiState::Modified) {
            _stats.l2_writebacks_in.inc();
            if (l2way != L2Array::kNoWay) {
                L2Meta &lm = l2Meta(l2way);
                l2Slot(l2way) = vm.data;
                lm.dirty = true;
                lm.virgin = false;
            }
            transfer(bankOf(va), vm.data, true,
                     _eq.now() + _cfg.ctrl_latency + _flight);
        }
        if (l2way != L2Array::kNoWay) {
            L2Meta &lm = l2Meta(l2way);
            lm.sharers &= std::uint8_t(~(1u << core));
            if (lm.ownedBy(core))
                lm.clearOwner();
        }
    }
    l1.invalidate(v);
    return v;
}

bool
MemHierarchy::recallForShared(L2Array::Way way, Addr addr,
                              Cycle earliest, Cycle *ready)
{
    L2Meta &lm = l2Meta(way);
    *ready = earliest;
    if (!lm.owned())
        return false;
    unsigned owner = lm.owner();
    lm.clearOwner();
    auto l1way = _l1d[owner].lookup(addr);
    if (l1way == L1Array::kNoWay)
        return false;
    L1Meta &l1m = _l1d[owner].meta(l1way);
    bool was_dirty = l1m.state == MesiState::Modified;
    l1m.state = MesiState::Shared;
    if (was_dirty) {
        _stats.recalls.inc();
        DESC_TRACE_EVENT(Cache, _eq.now(),
                         "coherence recall: owner core ", owner,
                         " addr 0x", std::hex, addr, std::dec);
        Block512 &data = l2Slot(way);
        data = l1m.data;
        lm.dirty = true;
        lm.virgin = false;
        *ready = transfer(bankOf(addr), data, true, earliest);
        return true;
    }
    return false;
}

bool
MemHierarchy::invalidateSharers(L2Array::Way way, Addr addr,
                                unsigned except_core, Cycle earliest,
                                Cycle *ready)
{
    L2Meta &lm = l2Meta(way);
    *ready = earliest;
    bool recalled = false;
    std::uint8_t sharers = lm.sharers;
    for (unsigned c = 0; c < _l1d.size(); c++) {
        if (c == except_core || !(sharers & (1u << c)))
            continue;
        auto l1way = _l1d[c].lookup(addr);
        if (l1way != L1Array::kNoWay) {
            L1Meta &l1m = _l1d[c].meta(l1way);
            if (l1m.state == MesiState::Modified) {
                _stats.recalls.inc();
                Block512 &data = l2Slot(way);
                data = l1m.data;
                lm.dirty = true;
                lm.virgin = false;
                *ready = transfer(bankOf(addr), data, true, earliest);
                recalled = true;
            }
            _l1d[c].invalidate(l1way);
        }
        lm.sharers &= std::uint8_t(~(1u << c));
    }
    if (lm.owned() && !lm.ownedBy(except_core))
        lm.clearOwner();
    // Postcondition: only the exempted core may still share the line,
    // and the directory cannot name an evicted sharer as owner.
    DESC_DCHECK(except_core >= 8
                    || (lm.sharers
                        & std::uint8_t(~(1u << except_core))) == 0,
                "sharers survived invalidation: bitmap ",
                unsigned(lm.sharers), " except core ", except_core);
    DESC_DCHECK(!lm.owned() || lm.ownedBy(except_core),
                "stale owner ", lm.owner(), " after invalidation");
    return recalled;
}

void
MemHierarchy::fillL1(const MshrEntry::Waiter &w, Addr addr,
                     L2Array::Way l2way)
{
    L1Array &l1 = w.ifetch ? _l1i[w.core] : _l1d[w.core];
    auto way = l1.lookup(addr);
    if (way == L1Array::kNoWay) {
        way = evictL1Victim(w.core, l1, addr, w.ifetch);
        l1.fill(way, addr);
    }
    L1Meta &l1m = l1.meta(way);
    l1m.data = l2Data(l2way);
    L2Meta &l2m = l2Meta(l2way);
    if (w.ifetch) {
        // Instruction lines are read-only and not directory-tracked.
        l1m.state = MesiState::Shared;
        return;
    }
    if (w.exclusive) {
        l1m.state = MesiState::Exclusive;
        l2m.setOwner(w.core);
        l2m.sharers = std::uint8_t(1u << w.core);
    } else {
        bool alone = l2m.sharers == 0;
        l1m.state = alone ? MesiState::Exclusive : MesiState::Shared;
        l2m.sharers |= std::uint8_t(1u << w.core);
        if (alone)
            l2m.setOwner(w.core);
        else
            l2m.clearOwner();
    }
}

void
MemHierarchy::accessEvent(AccessEvent &ev)
{
    DESC_PROF_SCOPE(CacheRequest);
    const Addr ba = ev.ba;
    const Cycle t0 = ev.t0;
    const MshrEntry::Waiter w = ev.w;
    _access_events.release(ev);
    l2Request(ba, t0, w);
}

void
MemHierarchy::tagProbe(unsigned mshr)
{
    DESC_PROF_SCOPE(CacheMiss);
    _dram.access(_mshr_pool[mshr].addr, false,
                 continuation<&MemHierarchy::finishMiss>(mshr));
}

void
MemHierarchy::respond(ResponseEvent &ev)
{
    DESC_PROF_SCOPE(CacheRespond);
    if (ev.sample_hit)
        _stats.hit_latency.sample(double(_eq.now() - ev.t0));
    const Addr addr = ev.addr;
    auto way = warmL2(addr).lookup(addr);
    for (auto &w : ev.waiters) {
        if (way != L2Array::kNoWay) {
            fillL1(w, addr, way);
            _l2.touch(way);
        }
        if (w.is_store) {
            auto lw = _l1d[w.core].lookup(w.req_addr);
            if (lw != L1Array::kNoWay) {
                L1Meta &lm = _l1d[w.core].meta(lw);
                lm.state = MesiState::Modified;
                lm.data[unsigned((w.req_addr >> 3) & 7)] = w.store_value;
            }
        }
        if (w.done)
            w.done();
    }
    ev.waiters.clear(); // keeps the capacity
    _response_events.release(ev);
}

void
MemHierarchy::l2Request(Addr addr, Cycle t0, MshrEntry::Waiter w)
{
    _stats.l2_requests.inc();

    auto mshr = findMshr(addr);
    if (mshr != kNoMshr) {
        _mshr_pool[mshr].waiters.push_back(w);
        _mshr_pool[mshr].exclusive_needed |= w.exclusive;
        return;
    }

    auto way = warmL2(addr).lookup(addr);
    if (way == L2Array::kNoWay) {
        startMiss(addr, t0, std::move(w));
        return;
    }

    _stats.l2_hits.inc();
    DESC_TRACE_EVENT(Cache, _eq.now(), "L2 hit: core ", w.core,
                     w.exclusive ? " excl" : " shared",
                     w.ifetch ? " ifetch" : "", " addr 0x", std::hex,
                     addr, std::dec);
    unsigned bank = bankOf(addr);
    Cycle flight_out = _cfg.snuca ? _banks[bank].route_latency : _flight;
    Cycle earliest = t0 + _cfg.ctrl_latency + flight_out;

    Cycle ready = earliest;
    if (w.exclusive) {
        if (invalidateSharers(way, addr, w.core, earliest, &ready))
            ready += _cfg.recall_latency;
    } else if (l2Meta(way).owned() && !l2Meta(way).ownedBy(w.core)) {
        if (recallForShared(way, addr, earliest, &ready))
            ready += _cfg.recall_latency;
    }

    Cycle complete = transfer(bank, l2Data(way), false, ready);
    Cycle flight_back =
        _cfg.snuca ? _banks[bank].route_latency : _flight;

    ResponseEvent &ev = _response_events.acquire();
    ev.waiters.push_back(std::move(w));
    ev.addr = addr;
    ev.t0 = t0;
    ev.sample_hit = true;
    _eq.schedule(ev, complete + flight_back);
}

void
MemHierarchy::startMiss(Addr addr, Cycle t0, MshrEntry::Waiter w)
{
    _stats.l2_misses.inc();
    DESC_TRACE_EVENT(Cache, _eq.now(), "L2 miss: core ", w.core,
                     w.exclusive ? " excl" : " shared",
                     w.ifetch ? " ifetch" : "", " addr 0x", std::hex,
                     addr, std::dec, ", to DRAM");
    // MSHR occupancy contract: one entry per block address (merges go
    // through l2Request), and entries only die in finishMiss.
    DESC_DCHECK(findMshr(addr) == kNoMshr,
                "duplicate MSHR allocation for addr 0x", std::hex, addr,
                std::dec);
    std::uint32_t idx;
    if (_mshr_free.empty()) {
        idx = std::uint32_t(_mshr_pool.size());
        _mshr_pool.emplace_back();
    } else {
        idx = _mshr_free.back();
        _mshr_free.pop_back();
    }
    MshrEntry &entry = _mshr_pool[idx];
    entry.addr = addr;
    entry.exclusive_needed = w.exclusive;
    entry.waiters.push_back(std::move(w));
    _mshr_active.emplace_back(addr, idx);

    // Tag probe detects the miss, then the request goes to memory.
    _eq.schedule(t0 + _cfg.ctrl_latency + _flight + 2,
                 continuation<&MemHierarchy::tagProbe>(idx));
}

void
MemHierarchy::finishMiss(unsigned idx)
{
    DESC_PROF_SCOPE(CacheMiss);
    const Addr addr = _mshr_pool[idx].addr;
    DESC_ASSERT(findMshr(addr) == idx,
                "miss completion for MSHR ", idx, " not in flight");
    const Block512 &mem = _backing.fetch(addr);

    // Prefer victims without live L1 copies: evicting an L1-resident
    // line forces an inclusive back-invalidation that would wipe the
    // cores' hot sets whenever the L2 churns.
    auto v = warmL2(addr).victimPreferring(addr, [](const L2Meta &m) {
        return m.sharers != 0 || m.owned();
    });
    unsigned bank = bankOf(addr);
    if (_l2.valid(v)) {
        Addr va = _l2.addrOf(v);
        // Inclusive hierarchy: L1 copies of the victim must go.
        Cycle ready;
        invalidateSharers(v, va, unsigned(-1), _eq.now(), &ready);
        if (l2Meta(v).dirty) {
            _stats.l2_evictions_out.inc();
            DESC_TRACE_EVENT(Cache, _eq.now(),
                             "L2 dirty eviction: addr 0x", std::hex,
                             va, std::dec, " to DRAM");
            // Dirty implies materialized, so this l2Data() never
            // re-enters the backing store (whose fetch() scratch
            // still holds `mem` when the block was never written).
            const Block512 &victim_data = l2Data(v);
            transfer(bank, victim_data, false, _eq.now());
            _backing.store(va, victim_data);
            _dram.access(va, true, DoneCb{});
        }
        _l2.invalidate(v);
    }
    _l2.fill(v, addr);
    l2Slot(v) = mem;
    _stats.l2_fills.inc();

    // Fill the data array through the bank's write port; the reply to
    // the cores leaves the controller in parallel.
    transfer(bank, mem, true, _eq.now() + _cfg.ctrl_latency);

    Cycle resp = _eq.now() + _cfg.ctrl_latency;
    MshrEntry &entry = _mshr_pool[idx];
    ResponseEvent &ev = _response_events.acquire();
    ev.addr = addr;
    ev.t0 = 0;
    ev.sample_hit = false;
    for (auto &w : entry.waiters)
        ev.waiters.push_back(w);
    entry.waiters.clear(); // keeps the capacity for the next miss
    for (auto &slot : _mshr_active) {
        if (slot.second == idx) {
            slot = _mshr_active.back();
            _mshr_active.pop_back();
            break;
        }
    }
    _mshr_free.push_back(idx);

    _eq.schedule(ev, resp);
}

void
MemHierarchy::prefill(Addr addr)
{
    addr = blockAddr(addr);
    L2Array &l2 = warmL2(addr);
    if (l2.lookup(addr) != L2Array::kNoWay)
        return;
    auto v = l2.victimPreferring(addr, [](const L2Meta &m) {
        return m.sharers != 0 || m.owned();
    });
    if (l2.valid(v) && l2Meta(v).dirty)
        _backing.store(l2.addrOf(v), l2Data(v));
    l2.invalidate(v);
    l2.fill(v, addr);
    // Tag-only install: the payload stays virgin until the first read
    // materializes it (l2Data()). Warming ~70% of the L2 then costs
    // tag walks instead of a value-model synthesis per block, and a
    // line that is never read never pays one at all.
    l2Meta(v).virgin = true;
}

void
MemHierarchy::setWarmupPlan(std::vector<WarmupRange> plan)
{
    // Replay finds a set's blocks by arithmetic on 64-byte block
    // numbers, the granule blockAddr() and bankOf() also assume.
    DESC_ASSERT(_cfg.org.block_bytes == 64,
                "warm-up replay needs 64-byte L2 blocks, not ",
                _cfg.org.block_bytes);
    for (std::uint64_t cold : _l2_cold)
        DESC_ASSERT(cold == ~std::uint64_t{0},
                    "warm-up plan set after the L2 was touched");
    _warmup = std::move(plan);
}

void
MemHierarchy::replayWarmup(unsigned set)
{
    _l2_cold[set >> 6] &= ~(std::uint64_t{1} << (set & 63));
    // The set's first touch: store its (already empty) state so its
    // pages fault in once, writable (see SetAssocArray::clearSet).
    _l2.clearSet(set);
    for (unsigned w = 0; w < _l2.assoc(); w++)
        _l2_slot[std::size_t(set) * _l2.assoc() + w] = 0;
    // In a range starting at block b0, block k lands in set
    // (b0 + k) mod sets: the set's blocks are k = (set - b0) mod sets
    // and every further `sets` blocks. (Unsigned wrap-around is exact
    // because sets divides 2^64.)
    const std::uint64_t sets = _l2.numSets();
    for (const WarmupRange &r : _warmup) {
        const std::uint64_t b0 = r.base / 64;
        for (std::uint64_t k = (set - b0) & (sets - 1); k < r.blocks;
             k += sets)
            prefill(r.base + k * 64);
    }
}

std::vector<Addr>
MemHierarchy::l2SetSnapshot(unsigned set)
{
    // Block number `set` lies in set `set`.
    return warmL2(Addr(set) * _cfg.org.block_bytes).setSnapshot(set);
}

const Block512 &
MemHierarchy::l2Data(L2Array::Way way)
{
    L2Meta &m = l2Meta(way);
    Block512 &data = l2Slot(way);
    if (m.virgin) {
        data = _backing.fetch(_l2.addrOf(way));
        m.virgin = false;
    }
    return data;
}

Block512 &
MemHierarchy::l2Slot(L2Array::Way way)
{
    DESC_DCHECK(!l2SetCold(way / _l2.assoc()),
                "L2 way ", way, " written before its set was warmed");
    std::uint32_t &slot = _l2_slot[way];
    if (slot == 0) {
        _l2_pool.emplace_back();
        slot = std::uint32_t(_l2_pool.size());
    }
    return _l2_pool[slot - 1];
}

std::optional<Cycle>
MemHierarchy::access(unsigned core, Addr addr, bool is_write,
                     std::uint64_t store_value, bool ifetch, DoneCb done)
{
    DESC_PROF_SCOPE(CacheAccess);
    DESC_ASSERT(core < _l1d.size(), "core id out of range");
    DESC_ASSERT(!(ifetch && is_write), "cannot write instructions");

    L1Array &l1 = ifetch ? _l1i[core] : _l1d[core];
    (ifetch ? _stats.l1i_accesses : _stats.l1d_accesses).inc();

    const unsigned word = unsigned((addr >> 3) & 7);
    auto way = l1.lookup(addr);
    if (way != L1Array::kNoWay) {
        L1Meta &lm = l1.meta(way);
        if (!is_write) {
            l1.touch(way);
            return Cycle{2};
        }
        if (lm.state == MesiState::Modified
            || lm.state == MesiState::Exclusive) {
            lm.state = MesiState::Modified;
            lm.data[word] = store_value;
            l1.touch(way);
            return Cycle{2};
        }
        // Store hit on a Shared line: upgrade (invalidate peers, no
        // data transfer).
        _stats.upgrades.inc();
        Addr ba = blockAddr(addr);
        auto l2way = warmL2(ba).lookup(ba);
        if (l2way != L2Array::kNoWay) {
            Cycle ready;
            invalidateSharers(l2way, ba, core,
                              _eq.now() + _cfg.ctrl_latency, &ready);
            l2Meta(l2way).setOwner(core);
            l2Meta(l2way).sharers = std::uint8_t(1u << core);
        }
        lm.state = MesiState::Modified;
        lm.data[word] = store_value;
        l1.touch(way);
        _eq.scheduleIn(2 * (_cfg.ctrl_latency + _flight), done);
        return std::nullopt;
    }

    (ifetch ? _stats.l1i_misses : _stats.l1d_misses).inc();

    Addr ba = blockAddr(addr);
    Cycle t0 = _eq.now() + 2; // L1 probe detects the miss
    MshrEntry::Waiter w{core,  is_write,    ifetch, is_write,
                        addr,  store_value, done};
    AccessEvent &ev = _access_events.acquire();
    ev.ba = ba;
    ev.t0 = t0;
    ev.w = w;
    _eq.schedule(ev, t0);
    return std::nullopt;
}

} // namespace desc::cache
