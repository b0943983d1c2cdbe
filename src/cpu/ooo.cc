#include "cpu/ooo.hh"

#include <algorithm>

#include "common/contract.hh"
#include "common/prof.hh"

namespace desc::cpu {

OooCore::OooCore(sim::EventQueue &eq, cache::MemHierarchy &mem,
                 unsigned core_id,
                 std::unique_ptr<InstructionStream> stream,
                 std::uint64_t inst_budget)
    : _eq(eq), _mem(mem), _core_id(core_id), _stream(std::move(stream)),
      _inst_budget(inst_budget), _rng(0xa0a0 + core_id)
{
    _dispatch_ev.core = this;
}

void
OooCore::start()
{
    scheduleDispatch(_eq.now());
}

void
OooCore::scheduleDispatch(Cycle when)
{
    if (_dispatch_ev.scheduled() || _finished)
        return;
    _eq.schedule(_dispatch_ev, when);
}

void
OooCore::execEvent(ExecEvent &ev)
{
    DESC_PROF_SCOPE(CpuOoo);
    const MemOp op = ev.op;
    const std::uint64_t inst_no = ev.inst_no;
    _exec_events.release(ev);

    if (op.is_write) {
        // Stores drain through the store buffer off the critical
        // path (traffic still charged).
        _mem.access(_core_id, op.addr, true, op.store_value, false,
                    sim::DoneCb{});
        scheduleDispatch(_eq.now());
        return;
    }
    bool dependent = _rng.chance(kDependentLoadFrac);
    auto lat = _mem.access(
        _core_id, op.addr, false, 0, false,
        {[](void *c, unsigned) { static_cast<OooCore *>(c)->onLoadDone(); },
         this, 0});
    if (lat) {
        // L1 hit: pipelined; even a dependent load only costs the
        // short L1 latency.
        scheduleDispatch(_eq.now() + (dependent ? *lat : 1));
    } else if (dependent) {
        // Address depends on this load: the chain serializes and the
        // full L1-miss latency is exposed.
        _outstanding.push_back(inst_no);
        // resumed by onLoadDone
    } else {
        _outstanding.push_back(inst_no);
        // Keep executing past the miss (until ROB/MLP bind).
        scheduleDispatch(_eq.now() + 1);
    }
}

void
OooCore::onLoadDone()
{
    DESC_ASSERT(!_outstanding.empty(), "load completion with none issued");
    _outstanding.pop_front();
    scheduleDispatch(_eq.now());
}

void
OooCore::dispatch()
{
    DESC_PROF_SCOPE(CpuOoo);
    if (_finished)
        return;

    // Window limits: wait when MLP slots are exhausted or the ROB
    // cannot slide further past the oldest outstanding load.
    if (_outstanding.size() >= kMlp)
        return; // resumed by onLoadDone
    if (!_outstanding.empty() && _retired - _outstanding.front() >= kRob)
        return;

    // Instruction fetch (one line per kFetchInterval instructions); an
    // I-miss stalls the front end.
    if (_fetch_countdown == 0) {
        _fetch_countdown = kFetchInterval;
        auto lat = _mem.access(
            _core_id, _stream->fetchAddr(), false, 0, true,
            {[](void *c, unsigned) {
                 auto *core = static_cast<OooCore *>(c);
                 core->scheduleDispatch(core->_eq.now());
             },
             this, 0});
        if (!lat)
            return; // resumed by the fetch completion
    }

    MemOp op;
    unsigned gap = _stream->nextGap(op);
    std::uint64_t remaining = _inst_budget - _retired;
    bool has_mem = true;
    std::uint64_t insts = std::uint64_t(gap) + 1;
    if (insts >= remaining) {
        insts = remaining;
        has_mem = gap + 1 <= remaining;
    }

    _retired += insts;
    _fetch_countdown = _fetch_countdown > insts
        ? unsigned(_fetch_countdown - insts)
        : 0;

    Cycle busy =
        std::max<Cycle>(1, (insts + kIssueWidth - 1) / kIssueWidth);
    Cycle end = _eq.now() + busy;

    if (_retired >= _inst_budget) {
        _finished = true;
        return;
    }

    if (!has_mem) {
        scheduleDispatch(end);
        return;
    }

    ExecEvent &ev = _exec_events.acquire();
    ev.op = op;
    ev.inst_no = _retired;
    _eq.schedule(ev, end);
}

} // namespace desc::cpu
