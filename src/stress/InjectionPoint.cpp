//===- stress/InjectionPoint.cpp - Lock-word transition hooks -------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "stress/InjectionPoint.h"

namespace solero {
namespace inject {

namespace detail {
std::atomic<Hook> ArmedHook{nullptr};
std::atomic<void *> ArmedCtx{nullptr};
} // namespace detail

const char *siteName(Site S) {
  switch (S) {
  case Site::SoleroEnterWriteCas:
    return "SoleroEnterWriteCas";
  case Site::SoleroExitWriteRelease:
    return "SoleroExitWriteRelease";
  case Site::SoleroSlowExitRelease:
    return "SoleroSlowExitRelease";
  case Site::SoleroReadExitRelease:
    return "SoleroReadExitRelease";
  case Site::SoleroReadValidate:
    return "SoleroReadValidate";
  case Site::SoleroUpgradeCas:
    return "SoleroUpgradeCas";
  case Site::TasukiEnterCas:
    return "TasukiEnterCas";
  case Site::TasukiExitRelease:
    return "TasukiExitRelease";
  case Site::TasukiSlowExitRelease:
    return "TasukiSlowExitRelease";
  case Site::MonitorFlcSet:
    return "MonitorFlcSet";
  case Site::MonitorPark:
    return "MonitorPark";
  case Site::MonitorInflate:
    return "MonitorInflate";
  case Site::MonitorDeflate:
    return "MonitorDeflate";
  case Site::BravoReadPublish:
    return "BravoReadPublish";
  case Site::BravoRevokeScan:
    return "BravoRevokeScan";
  case Site::Count:
    break;
  }
  return "<unknown-site>";
}

void setHook(Hook H, void *Ctx) {
  if (H == nullptr) {
    // Disarm hook-first so a racing fire() that already loaded the old
    // hook still sees a valid (if soon stale) context, or a null one.
    detail::ArmedHook.store(nullptr, std::memory_order_release);
    detail::ArmedCtx.store(nullptr, std::memory_order_release);
    return;
  }
  detail::ArmedCtx.store(Ctx, std::memory_order_release);
  detail::ArmedHook.store(H, std::memory_order_release);
}

} // namespace inject
} // namespace solero
