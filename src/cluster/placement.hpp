// Capacity-aware least-loaded placement: the decision rule of the
// scalable-server story.
//
// The paper's abstract distributes "media schedulers and media stream
// producers among NIs within a server" and clusters such servers. Placement
// treats every NI of every server as one candidate: among the candidates
// whose admission controller still has headroom, pick the least loaded (ties
// to the lowest index, so placement is deterministic and replayable).
//
// The one caller is cluster::ClusterControlPlane, for fresh admission across
// its boards and for mass re-admission after a board death, where honoring
// headroom is what keeps a failover from cascading into the overload that
// kills the next board.
#pragma once

namespace nistream::cluster {

/// Index of the least-loaded candidate in [0, n) for which `admissible(i)`
/// holds, or -1 when none qualifies. `load(i)` returns the candidate's
/// binding-resource utilization; ties go to the lower index.
template <typename LoadFn, typename AdmitFn>
[[nodiscard]] int pick_least_loaded(int n, LoadFn&& load, AdmitFn&& admissible) {
  int best = -1;
  double best_load = 0;
  for (int i = 0; i < n; ++i) {
    if (!admissible(i)) continue;
    const double l = load(i);
    if (best < 0 || l < best_load) {
      best = i;
      best_load = l;
    }
  }
  return best;
}

}  // namespace nistream::cluster
