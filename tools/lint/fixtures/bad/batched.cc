// desc-lint fixture: deliberate violation.
// Expected findings: hot-path-alloc (naked new/delete in a file the
// hot-path allocation ban covers, like the batched encoder passes,
// the L2 transaction chain, or the core dispatch loops). Never
// compiled; exercised only by desc_lint.py --self-test.

#include <cstdint>

struct ReplayWindow
{
    std::uint64_t *slots;
    unsigned count;
};

inline ReplayWindow *
openWindow(unsigned count)
{
    // Per-burst scratch must live in the core's own reused buffers,
    // not come from the allocator once per dispatched burst.
    ReplayWindow *w = new ReplayWindow;
    w->slots = new std::uint64_t[count];
    w->count = count;
    return w;
}

inline void
closeWindow(ReplayWindow *w)
{
    delete[] w->slots;
    delete w;
}
