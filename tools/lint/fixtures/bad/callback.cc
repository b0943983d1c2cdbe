// desc-lint fixture: deliberate violation.
// Expected findings: hot-path-function (a std::function continuation
// in a file the hot-path rules cover, like the DRAM request queue).
// Never compiled; exercised only by desc_lint.py --self-test.

#include <deque>
#include <functional>

struct Request
{
    unsigned long addr;
    // A capturing std::function may heap-allocate per request; the
    // kernel's continuation type is sim::DoneCb.
    std::function<void()> done;
};

inline void
enqueue(std::deque<Request> &queue, unsigned long addr, unsigned *count)
{
    queue.push_back(Request{addr, [count, addr]() { *count += addr; }});
}
