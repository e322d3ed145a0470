// CephFS model configuration (§II related work + §V-A).
//
// The baseline reproduces the mechanisms the paper credits for CephFS's
// behaviour: a single-threaded MDS (the MDS global lock) that journals
// metadata updates to the OSDs, client capabilities backing a kernel-side
// metadata cache, and namespace partitioning across MDSs — dynamic (the
// default balancer), manually pinned (DirPinned), or with the client
// cache disabled (SkipKCache).
#pragma once

#include "util/time.h"

namespace repro::cephfs {

enum class CephVariant {
  kDefault,     // dynamic subtree partitioning + kernel cache
  kDirPinned,   // static subtree pins + kernel cache
  kSkipKCache,  // dynamic + kernel cache bypassed
};
const char* CephVariantLabel(CephVariant variant);

struct CephConfig {
  int num_mds = 1;
  CephVariant variant = CephVariant::kDefault;
};

}  // namespace repro::cephfs
