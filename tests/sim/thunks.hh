/**
 * @file
 * Test adapter from lambdas to the kernel's DoneCb continuations.
 *
 * The kernel and DRAM take plain DoneCb one-shots; tests are easier
 * to read with capturing lambdas. Thunks owns the lambdas and hands
 * out a DoneCb per lambda that runs it. A deque keeps each lambda in
 * place while a running one adds more.
 */

#ifndef DESC_TESTS_SIM_THUNKS_HH
#define DESC_TESTS_SIM_THUNKS_HH

#include <deque>
#include <functional>
#include <utility>

#include "sim/eventq.hh"

namespace desc::test {

class Thunks
{
  public:
    /** A DoneCb that runs @p fn; fn lives as long as this object. */
    sim::DoneCb
    operator()(std::function<void()> fn)
    {
        _fns.push_back(std::move(fn));
        return {[](void *self, unsigned i) {
                    static_cast<Thunks *>(self)->_fns[i]();
                },
                this, unsigned(_fns.size() - 1)};
    }

  private:
    std::deque<std::function<void()>> _fns;
};

} // namespace desc::test

#endif // DESC_TESTS_SIM_THUNKS_HH
