//===- stress/InjectionPoint.h - Lock-word transition hooks -----*- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Named hooks at every lock-word transition window in the lock protocols
/// (release-store windows, FLC publication, inflation/deflation, the
/// read-mostly upgrade CAS, BRAVO's reader publication and writer
/// revocation). Each site is a `SOLERO_INJECT(Name)` macro
/// placed between the decision load and the commit store/CAS, so a torture
/// harness can stretch a nanosecond race window to milliseconds by
/// yielding, spinning, or sleeping there.
///
/// Disarmed cost is one relaxed load and a predicted-not-taken branch; with
/// `-DSOLERO_INJECTION_POINTS=OFF` at configure time the macro compiles to
/// nothing and the protocols are bit-identical to the uninstrumented code.
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_STRESS_INJECTIONPOINT_H
#define SOLERO_STRESS_INJECTIONPOINT_H

#include <atomic>
#include <cstdint>

namespace solero {
namespace inject {

/// Every perturbable lock-word transition window. One enumerator per
/// `SOLERO_INJECT` site; keep siteName() in InjectionPoint.cpp in sync.
enum class Site : uint32_t {
  SoleroEnterWriteCas = 0, ///< enterWrite: free-word load -> held CAS
  SoleroExitWriteRelease,  ///< exitWrite: held-word load -> release CAS
  SoleroSlowExitRelease,   ///< slowExitWrite: FLC-set release store -> notify
  SoleroReadExitRelease,   ///< slowReadExit hold_flat_lock release window
  SoleroReadValidate,      ///< end-of-section fence -> validation load
  SoleroUpgradeCas,        ///< WriteIntent::acquireForWrite upgrade CAS
  TasukiEnterCas,          ///< Tasuki enter: free-word load -> held CAS
  TasukiExitRelease,       ///< Tasuki exit: held-word load -> release CAS
  TasukiSlowExitRelease,   ///< Tasuki slowExit: FLC release store -> notify
  MonitorFlcSet,           ///< acquireOrPark: FLC CAS -> park decision
  MonitorPark,             ///< acquireOrPark: immediately before the timed park
  MonitorInflate,          ///< inflated-word install windows
  MonitorDeflate,          ///< fatExit: deflation restore-word store
  BravoReadPublish,        ///< BRAVO reader: slot publish -> fence + recheck
  BravoRevokeScan,         ///< BRAVO writer: bias clear -> fence + table scan
  Count
};

inline constexpr uint32_t SiteCount = static_cast<uint32_t>(Site::Count);

/// Stable human-readable site name ("SoleroExitWriteRelease").
const char *siteName(Site S);

/// Hook invoked at an armed site. \p Ctx is the pointer passed to setHook;
/// it may be null if the hook is being concurrently disarmed — hooks must
/// tolerate that and return.
using Hook = void (*)(void *Ctx, Site S);

/// Installs (Hook, Ctx) as the process-wide injection handler; a null hook
/// disarms. Arm/disarm while the protocols are quiescent or with a hook
/// that tolerates a stale Ctx: fire() reads the two cells without a lock.
void setHook(Hook H, void *Ctx);

namespace detail {
extern std::atomic<Hook> ArmedHook;
extern std::atomic<void *> ArmedCtx;
} // namespace detail

/// The per-site trampoline behind SOLERO_INJECT. Disarmed: one relaxed
/// load, no call.
inline void fire(Site S) {
  Hook H = detail::ArmedHook.load(std::memory_order_acquire);
  if (H != nullptr) [[unlikely]]
    H(detail::ArmedCtx.load(std::memory_order_acquire), S);
}

} // namespace inject
} // namespace solero

#if defined(SOLERO_INJECTION_POINTS)
#define SOLERO_INJECT(site) ::solero::inject::fire(::solero::inject::Site::site)
#else
#define SOLERO_INJECT(site) ((void)0)
#endif

#endif // SOLERO_STRESS_INJECTIONPOINT_H
